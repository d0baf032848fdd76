package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/faithful"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/scenario"
)

// layerUnits lists every per-layer metric the traced run prints, with
// its unit. Every workload prints all of them; a layer the workload
// does not reach reads 0.
var layerUnits = []struct{ name, unit string }{
	{"scenario.compile_ms", "ms"},
	{"churn.build_ms", "ms"},
	{"graph.sssp_ms", "ms"},
	{"fpss.central_ms", "ms"},
	{"fpss.central_calls", "count"},
	{"churn.boundary_ms", "ms"},
	{"churn.delta_share", "ratio"},
	{"faithful.honest_run_ms", "ms"},
	{"sim.construction_msgs", "count"},
	{"rational.plain.snapshot_ms", "ms"},
	{"rational.plain.play_p50_us", "us"},
	{"rational.plain.play_p99_us", "us"},
	{"rational.plain.plays", "count"},
	{"rational.faithful.snapshot_ms", "ms"},
	{"rational.faithful.play_p50_us", "us"},
	{"rational.faithful.play_p99_us", "us"},
	{"rational.faithful.plays", "count"},
	{"rational.top3_share", "ratio"},
	{"core.check_s", "s"},
	{"core.busy_frac", "ratio"},
	{"core.pruned", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.unit_alloc_mb", "MB"},
	{"live.read_p50_us", "us"},
	{"live.read_p99_us", "us"},
	{"live.max_rps", "1/s"},
	{"live.advance_ms", "ms"},
	{"live.dispatch_ns_p50", "ns"},
	{"live.dispatch_ns_p99", "ns"},
	{"live.wire_us_p50", "us"},
	{"live.backlog_max", "count"},
	{"live.lag_us_p99", "us"},
	{"livenet.advance_msgs", "count"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
}

// setLayerDefaults sets every per-layer metric to 0 so a workload
// only fills in the layers it reaches.
func setLayerDefaults(res *result) {
	for _, l := range layerUnits {
		res.set(l.name, 0, l.unit)
	}
}

func spanMs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.dur())
	}
	return out
}

// rationalLayers derives the rational, core and compile layer metrics
// from a check run's spans.
func rationalLayers(res *result, tr *tracer, workers int) {
	res.set("scenario.compile_ms", median(spanMs(tr.named("scenario.compile"))), "ms")

	var playTotal time.Duration
	byDev := map[string]time.Duration{}
	for _, v := range variants {
		pre := "rational." + v
		res.set(pre+".snapshot_ms", median(spanMs(tr.named(pre+".snapshot"))), "ms")
		plays := tr.named(pre + ".play")
		lat := make([]float64, len(plays))
		for i, s := range plays {
			lat[i] = us(s.dur())
			playTotal += s.dur()
			byDev[s.Detail] += s.dur()
		}
		res.set(pre+".play_p50_us", quantile(lat, 0.5), "us")
		res.set(pre+".play_p99_us", quantile(lat, 0.99), "us")
		res.set(pre+".plays", float64(len(plays)), "count")
	}
	var devTimes []time.Duration
	for _, d := range byDev {
		devTimes = append(devTimes, d)
	}
	slices.Sort(devTimes)
	slices.Reverse(devTimes)
	var top3 time.Duration
	for i := 0; i < len(devTimes) && i < 3; i++ {
		top3 += devTimes[i]
	}
	if playTotal > 0 {
		res.set("rational.top3_share", float64(top3)/float64(playTotal), "ratio")
	}

	var checkTotal time.Duration
	for _, s := range tr.named("core.check") {
		checkTotal += s.dur()
	}
	res.set("core.check_s", checkTotal.Seconds(), "s")
	if checkTotal > 0 {
		res.set("core.busy_frac", float64(playTotal)/(float64(workers)*float64(checkTotal)), "ratio")
	}
}

// maxProbeGraphs caps how many of a workload's graphs the graph,
// central and honest-run probes visit.
const maxProbeGraphs = 24

// graphLayers times the layers under the check engine on the
// workload's own graphs: all-source SSSP, central VCG construction,
// and one unseeded honest run of the extended protocol with its
// construction message count.
func graphLayers(res *result, tr *tracer, comps []*scenario.Compiled) error {
	if len(comps) > maxProbeGraphs {
		comps = comps[:maxProbeGraphs]
	}
	var sssp, central, honest, msgs []float64
	for _, c := range comps {
		g := c.Graph
		start := time.Now()
		d, err := timeAllSSSP(g)
		if err != nil {
			return err
		}
		sssp = append(sssp, ms(d))
		tr.add(tr.id(), 0, "graph.sssp", c.Spec.Describe(), start, time.Now())

		start = time.Now()
		if _, err := fpss.ComputeCentral(g); err != nil {
			return fmt.Errorf("%s: central: %w", c.Spec.Describe(), err)
		}
		central = append(central, ms(time.Since(start)))
		tr.add(tr.id(), 0, "fpss.central", c.Spec.Describe(), start, time.Now())

		start = time.Now()
		run, err := faithful.Run(c.FaithfulConfig())
		if err != nil {
			return fmt.Errorf("%s: honest run: %w", c.Spec.Describe(), err)
		}
		honest = append(honest, ms(time.Since(start)))
		tr.add(tr.id(), 0, "faithful.run", c.Spec.Describe(), start, time.Now())
		msgs = append(msgs, float64(run.Construction.Sent))
	}
	res.set("graph.sssp_ms", median(sssp), "ms")
	res.set("fpss.central_ms", median(central), "ms")
	res.set("fpss.central_calls", float64(len(central)), "count")
	res.set("faithful.honest_run_ms", median(honest), "ms")
	res.set("sim.construction_msgs", median(msgs), "count")
	return nil
}

// timeAllSSSP returns the mean time of one all-source SSSP sweep over
// g, repeating the sweep until at least a millisecond has passed.
func timeAllSSSP(g *graph.Graph) (time.Duration, error) {
	var t graph.Tree
	s := graph.NewScratch(g.N())
	reps := 0
	start := time.Now()
	for reps == 0 || time.Since(start) < time.Millisecond {
		for src := 0; src < g.N(); src++ {
			if err := g.SSSP(&t, s, graph.NodeID(src), nil); err != nil {
				return 0, err
			}
		}
		reps++
	}
	return time.Since(start) / time.Duration(reps), nil
}
