package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/scenario"
)

// probesPerPass is how many probes run before each pass.
const probesPerPass = 3

// profileRefRounds is how many reference base seeds, drawn from
// referenceSeed and the same in every run, one pass covers beside the
// seed's own: a rung's cost is set by its graph, and a pass drawn
// wholly from the seed carried the seed's luck into the unit metric.
const profileRefRounds = 5

// profilePass times one honest-profile pass the way faithcheck's
// profiling tier does it: per rung, compile, central construction,
// then both variants' snapshots seeded from the central solution.
// It returns the central-table digest of the pass and each rung's
// wall time.
func profilePass(specs []scenario.Spec, tr *tracer) (string, []float64, error) {
	h := sha256.New()
	passID := tr.id()
	passStart := time.Now()
	rungs := make([]float64, len(specs))
	for ri, sp := range specs {
		desc := sp.Describe()
		start := time.Now()
		c, err := sp.Compile()
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", desc, err)
		}
		cstart := time.Now()
		tr.add(tr.id(), passID, "scenario.compile", desc, start, cstart)
		sol, err := fpss.ComputeCentral(c.Graph)
		if err != nil {
			return "", nil, fmt.Errorf("%s: central: %w", desc, err)
		}
		tr.add(tr.id(), passID, "fpss.central", desc, cstart, time.Now())
		hashSolution(h, sol)

		plain, faith := c.Systems()
		plain.SeedHonest(sol)
		faith.SeedHonest(sol)
		for i, s := range []core.StatefulSystem{plain, faith} {
			sstart := time.Now()
			st, err := s.Snapshot()
			if err != nil {
				return "", nil, fmt.Errorf("%s: %s snapshot: %w", desc, variants[i], err)
			}
			tr.add(tr.id(), passID, "rational."+variants[i]+".snapshot", desc, sstart, time.Now())
			if base := st.Baseline(); !base.Completed || len(base.Detected) > 0 {
				return "", nil, fmt.Errorf("%s: %s honest profile did not complete cleanly (completed=%v detected=%v)",
					desc, variants[i], base.Completed, base.Detected)
			}
		}
		rungs[ri] = ms(time.Since(start))
	}
	tr.add(passID, 0, "unit", "pass", passStart, time.Now())
	return fmt.Sprintf("%x", h.Sum(nil)), rungs, nil
}

// hashSolution feeds the central costs, routing and pricing tables of
// every node, in node order, into h.
func hashSolution(h interface{ Write([]byte) (int, error) }, sol *fpss.Solution) {
	costs := sol.Costs.HashCosts()
	h.Write(costs[:])
	ids := make([]graph.NodeID, 0, len(sol.Routing))
	for id := range sol.Routing {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := sol.Routing[id].HashRouting()
		p := sol.Pricing[id].HashPricing()
		h.Write(r[:])
		h.Write(p[:])
	}
}

// runProfile runs the profile workload: the internet suite's honest-
// profile rungs (3 families × n∈{48,100}) of the seed's base seed and
// the reference ones, pass after pass until the deadline. The unit is
// one pass over every rung; the unit metric adds up each rung's
// fastest untraced time, so a stretch in which the shared host ran
// the benchmark slowly does not count.
func runProfile(o opts) (*result, error) {
	res := newResult()
	s, ok := scenario.LookupSuite("internet")
	if !ok {
		return nil, fmt.Errorf("suite internet is not registered")
	}
	var specs []scenario.Spec
	for _, base := range append([]int64{o.seed}, roundSeeds(referenceSeed, profileRefRounds)...) {
		specs = append(specs, s.ProfileSpecs(base)...)
	}
	setup, comps, err := timeSetup(func() ([]*scenario.Compiled, error) {
		out := make([]*scenario.Compiled, len(specs))
		for i, sp := range specs {
			c, err := sp.Compile()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sp.Describe(), err)
			}
			out[i] = c
		}
		return out, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	tr := o.tracer
	var walls, tracedWalls, allocs, probes []float64
	best := make([]float64, len(specs))
	var digest string
	r0 := sampleRuntime()
	start := time.Now()
	deadline := start.Add(o.seconds)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		// The traced run alternates traced and untraced passes, so the
		// tracing overhead is measured on the same inputs.
		var t *tracer
		if tr != nil && pass%2 == 1 {
			t = tr
		}
		if tr == nil {
			for range probesPerPass {
				probes = append(probes, probe())
			}
		}
		a := sampleRuntime()
		pstart := time.Now()
		d, rungs, err := profilePass(specs, t)
		wall := time.Since(pstart).Seconds()
		res.attempted++
		switch {
		case err != nil:
			res.fail("pass %d: %v", pass, err)
		case pass == 0:
			digest = d
		case d != digest:
			res.fail("pass %d: central tables differ from the first pass", pass)
		}
		if t != nil {
			tracedWalls = append(tracedWalls, wall)
			continue
		}
		walls = append(walls, wall)
		for i, r := range rungs {
			if len(walls) == 1 || r < best[i] {
				best[i] = r
			}
		}
		allocs = append(allocs, allocMB(a, sampleRuntime()))
	}
	wall := time.Since(start)
	r1 := sampleRuntime()
	checkGolden(res, o.workload, o.seed, digest)

	res.report = append(res.report,
		fmt.Sprintf("rungs=%d passes=%d", len(specs), res.attempted),
		fmt.Sprintf("setup_s=%.4f s  wall_s=%.3f s  pass ms p50=%.1f min=%.1f max=%.1f  fastest rungs add up to %.1f ms",
			setup, wall.Seconds(), 1e3*median(walls), 1e3*quantile(walls, 0), 1e3*quantile(walls, 1), sum(best)),
		fmt.Sprintf("MB per pass p50=%.1f  alloc_mb=%.1f", median(allocs), allocMB(r0, r1)),
		"central table digest "+digest)
	if tr == nil {
		res.set("setup_s", setup, "s")
		unit := scaled(sum(best), probes)
		res.report = append(res.report, probeLine(unit, probes))
		res.set("unit_ms", unit, "ms")
		return res, nil
	}
	setLayerDefaults(res)
	res.set("runtime.gc_cpu_frac", gcFrac(r0, r1), "ratio")
	res.set("runtime.unit_alloc_mb", median(allocs), "MB")
	res.set("trace.overhead_ms", 1e3*(median(tracedWalls)-median(walls)), "ms")
	res.set("scenario.compile_ms", median(spanMs(tr.named("scenario.compile"))), "ms")
	central := tr.named("fpss.central")
	res.set("fpss.central_ms", median(spanMs(central)), "ms")
	res.set("fpss.central_calls", float64(len(central)), "count")
	for _, v := range variants {
		res.set("rational."+v+".snapshot_ms", median(spanMs(tr.named("rational."+v+".snapshot"))), "ms")
	}
	var sssp []float64
	for _, c := range comps {
		d, err := timeAllSSSP(c.Graph)
		if err != nil {
			return nil, err
		}
		sssp = append(sssp, ms(d))
	}
	res.set("graph.sssp_ms", median(sssp), "ms")
	return res, nil
}
