package main

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// checkUnit is one scenario of the check workload: its unit of work
// is the verdict — the unpruned deviation grid of both protocol
// variants.
type checkUnit struct {
	desc string
	comp *scenario.Compiled
}

var variants = [2]string{"plain", "faithful"}

// gridSize is the number of plays the catalogue implies for sys: one
// per (node, deviation).
func gridSize(sys core.System) int {
	n := 0
	for _, node := range sys.Nodes() {
		n += len(sys.Deviations(node))
	}
	return n
}

// roundSeeds derives the suite base seeds of a workload: round 0 is
// the seed itself (so seed 1 round 0 is `faithcheck -suite <s> -seed
// 1`), later rounds are splitmix64 draws from it.
func roundSeeds(seed int64, rounds int) []int64 {
	out := []int64{seed}
	for r := 1; r < rounds; r++ {
		out = append(out, int64(scenario.Mix64(uint64(seed)+uint64(r)*0x9E3779B97F4A7C15)>>2)+1)
	}
	return out
}

const (
	// The seed's own base seed gives the two scenarios of one family
	// (which one follows from the seed) and refRounds base seeds drawn
	// from referenceSeed give every static scenario. A verdict's cost
	// is set by its graph, so a corpus drawn wholly from the seed would
	// carry the seed's luck into the unit metric; the reference
	// scenarios are the same in every run.
	refRounds     = 4
	referenceSeed = 0x5eed
	// checkMaxN is the largest scenario size kept.
	checkMaxN = 6
)

// checkSpecs expands the smoke suite's static specs with N <=
// checkMaxN: those of the seed's family from the seed's own base
// seed, then all of the reference base seeds'.
func checkSpecs(seed int64) ([]scenario.Spec, error) {
	s, ok := scenario.LookupSuite("smoke")
	if !ok {
		return nil, fmt.Errorf("suite smoke is not registered")
	}
	fam := s.Families[uint64(seed)%uint64(len(s.Families))]
	var out []scenario.Spec
	for i, base := range append([]int64{seed}, roundSeeds(referenceSeed, refRounds)...) {
		for _, sp := range s.Specs(base) {
			if sp.N <= checkMaxN && !sp.Churn.Dynamic() && (i > 0 || sp.Family == fam) {
				out = append(out, sp)
			}
		}
	}
	return out, nil
}

// compileUnits compiles every spec, timing each compile as the
// scenario layer.
func compileUnits(specs []scenario.Spec, tr *tracer) ([]*checkUnit, error) {
	units := make([]*checkUnit, len(specs))
	for i, sp := range specs {
		start := time.Now()
		c, err := sp.Compile()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Describe(), err)
		}
		units[i] = &checkUnit{desc: sp.Describe(), comp: c}
		tr.add(tr.id(), 0, "scenario.compile", units[i].desc, start, time.Now())
	}
	return units, nil
}

// verdict is one unit's measured verdict: both reports, the grid the
// catalogue implies for each, and the wall time.
type verdict struct {
	reps [2]core.Report
	grid [2]int
	wall time.Duration
	err  error
}

// runVerdict checks both variants of u on fresh systems, so every
// repeat of a unit does the same work from cold. With a tracer the
// systems are decorated and the unit, each check, each snapshot and
// each play become spans.
func runVerdict(u *checkUnit, cfg core.CheckConfig, tr *tracer) verdict {
	var v verdict
	unitID := tr.id()
	start := time.Now()
	p, f := u.comp.Systems()
	sys := [2]core.System{p, f}
	for i, s := range sys {
		checkID := tr.id()
		if tr != nil {
			s = traced(s, tr, checkID, "rational."+variants[i])
		}
		cstart := time.Now()
		rep, err := core.CheckFaithfulnessCfg(s, cfg)
		tr.add(checkID, unitID, "core.check", variants[i], cstart, time.Now())
		if err != nil {
			v.err = fmt.Errorf("%s: %s: %w", u.desc, variants[i], err)
			return v
		}
		v.reps[i] = rep
	}
	v.wall = time.Since(start)
	tr.add(unitID, 0, "unit", u.desc, start, start.Add(v.wall))
	for i, s := range sys {
		v.grid[i] = gridSize(s)
	}
	return v
}

// verify applies the output checks to one verdict: Theorem 1 (the
// extended spec is faithful), full grid coverage, and — for repeats —
// byte-identical reports.
func (v verdict) verify(res *result, u *checkUnit, first *verdict) {
	switch {
	case v.err != nil:
		res.fail("%v", v.err)
	case !v.reps[1].Faithful():
		res.fail("%s: Theorem 1 violated: extended spec admits %v", u.desc, v.reps[1].Violations)
	case v.reps[0].Checked+v.reps[0].Pruned != v.grid[0] || v.reps[1].Checked+v.reps[1].Pruned != v.grid[1]:
		res.fail("%s: grid coverage %d+%d / %d+%d plays, catalogue implies %d / %d", u.desc,
			v.reps[0].Checked, v.reps[0].Pruned, v.reps[1].Checked, v.reps[1].Pruned, v.grid[0], v.grid[1])
	case first != nil && !reflect.DeepEqual(v.reps, first.reps):
		res.fail("%s: repeat verdict differs from the first", u.desc)
	}
}

// violationDigest hashes the plain variant's violation sets of every
// unit, in unit order.
func violationDigest(first []verdict) string {
	h := sha256.New()
	for _, v := range first {
		for _, x := range v.reps[0].Violations {
			fmt.Fprintf(h, "%d|%s|%d|%d|%d;", x.Node, x.Deviation, x.Baseline, x.Deviant, x.Epoch)
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// overheadReps is the fewest times the traced run plays one unit each
// way to measure the tracing overhead.
const overheadReps = 3

// runCheck runs the check-static workload. Set-up compiles the
// scenarios; the timed section plays them in rounds, the first round
// giving each scenario's reference verdict and every later one checked
// to repeat it exactly. A scenario's cost is its fastest verdict over
// the complete rounds, and the unit metric is the mean of those, so
// every play, every snapshot and the worker pool's idle tail count
// while a stretch in which the shared host ran the benchmark slowly
// does not. The untraced run starts rounds until the deadline (at
// least two; the last is cut at the deadline and only checked); the
// traced run plays one round with spans, then replays the cheapest
// unit, alternately untraced and traced and at least overheadReps
// times each way, to measure the tracing overhead.
func runCheck(o opts) (*result, error) {
	res := newResult()
	specs, err := checkSpecs(o.seed)
	if err != nil {
		return nil, err
	}
	setup, units, err := timeSetup(func() ([]*checkUnit, error) { return compileUnits(specs, nil) }, nil)
	if err != nil {
		return nil, err
	}
	cfg := core.CheckConfig{Workers: runtime.NumCPU()}
	tr := o.tracer
	if tr != nil {
		if _, err := compileUnits(specs, tr); err != nil {
			return nil, err
		}
	}

	first := make([]verdict, len(units))
	walls := make([]float64, len(units))
	var probes []float64
	r0 := sampleRuntime()
	start := time.Now()
	deadline := start.Add(o.seconds)
	for i, u := range units {
		if tr == nil {
			probes = append(probes, probe())
		}
		first[i] = runVerdict(u, cfg, tr)
		res.attempted++
		first[i].verify(res, u, nil)
		walls[i] = ms(first[i].wall)
	}
	firstRound := sum(walls)
	r1 := sampleRuntime()
	allocPerVerdict := allocMB(r0, r1) / float64(len(units))
	digest := violationDigest(first)
	checkGolden(res, o.workload, o.seed, digest)
	best := slices.Clone(walls)
	rounds := 1
	report := func(replays int) {
		res.report = append(res.report,
			fmt.Sprintf("scenarios=%d verdicts=%d (%d replays, %d complete rounds) workers=%d", len(units), res.attempted, replays, rounds, cfg.Workers),
			fmt.Sprintf("setup_s=%.4f s  first round wall_s=%.3f s (%.1f ms per verdict)  mean fastest verdict %.1f ms  alloc_mb=%.1f (%.1f per verdict)",
				setup, firstRound/1e3, firstRound/float64(len(units)), sum(best)/float64(len(best)), allocMB(r0, r1), allocPerVerdict),
			fmt.Sprintf("verdict wall ms p50=%.1f min=%.1f max=%.1f (first round)", median(walls), quantile(walls, 0), quantile(walls, 1)),
			fmt.Sprintf("plain violation digest %s", digest),
			fmt.Sprintf("fastest verdict ms per scenario %.0f", best))
	}

	if tr == nil {
		replays := 0
		round := make([]float64, len(units))
		for rounds < 2 || time.Now().Before(deadline) {
			complete := true
			for k, u := range units {
				if rounds >= 2 && !time.Now().Before(deadline) {
					complete = false
					break
				}
				probes = append(probes, probe())
				v := runVerdict(u, cfg, nil)
				res.attempted++
				replays++
				v.verify(res, u, &first[k])
				round[k] = ms(v.wall)
			}
			if !complete {
				break
			}
			for k, w := range round {
				best[k] = min(best[k], w)
			}
			rounds++
		}
		report(replays)
		unit := scaled(sum(best)/float64(len(best)), probes)
		res.report = append(res.report, probeLine(unit, probes))
		res.set("setup_s", setup, "s")
		res.set("unit_ms", unit, "ms")
		return res, nil
	}

	// The per-layer figures come from the first round's spans alone.
	setLayerDefaults(res)
	res.set("runtime.gc_cpu_frac", gcFrac(r0, r1), "ratio")
	res.set("runtime.unit_alloc_mb", allocPerVerdict, "MB")
	rationalLayers(res, tr, cfg.Workers)
	pruned := 0
	for _, v := range first {
		pruned += v.reps[0].Pruned + v.reps[1].Pruned
	}
	res.set("core.pruned", float64(pruned), "count")
	comps := make([]*scenario.Compiled, len(units))
	for i, u := range units {
		comps[i] = u.comp
	}
	if err := graphLayers(res, tr, comps); err != nil {
		return nil, err
	}
	// Tracing overhead on identical inputs. Repeats of one verdict
	// spread by tens of percent with how the costly plays fall on the
	// workers, so this reads as noise around a small overhead.
	cheapest := 0
	for i := range units {
		if walls[i] < walls[cheapest] {
			cheapest = i
		}
	}
	var on, off []float64
	for len(on) < overheadReps || time.Now().Before(deadline) {
		for _, t := range []*tracer{nil, tr} {
			v := runVerdict(units[cheapest], cfg, t)
			res.attempted++
			v.verify(res, units[cheapest], &first[cheapest])
			if t == nil {
				off = append(off, ms(v.wall))
			} else {
				on = append(on, ms(v.wall))
			}
		}
	}
	report(len(on) + len(off))
	res.set("trace.overhead_ms", median(on)-median(off), "ms")
	return res, nil
}
