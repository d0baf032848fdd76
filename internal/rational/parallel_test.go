package rational

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fpss"
	"repro/internal/graph"
)

// TestParallelCheckMatchesSequentialOracle is the engine's acceptance
// gate: over 100+ seeded scenarios, the parallel deviation search must
// produce a Report byte-identical to the sequential oracle on the full
// rational catalogue. PlainSystem scenarios carry the violation-rich
// side (plain FPSS is manipulable, so reports have non-trivial
// violation lists to compare); the faithful side is covered by
// TestParallelFaithfulCheckMatchesSequentialOracle.
func TestParallelCheckMatchesSequentialOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("differential deviation search over 100 graphs is the full lane")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 104; trial++ {
		var g *graph.Graph
		var err error
		if trial == 0 {
			g = graph.Figure1()
		} else {
			g, err = graph.RandomBiconnected(4+rng.Intn(3), rng.Intn(4), 8, rng)
			if err != nil {
				t.Fatal(err)
			}
		}
		params := DefaultParams(g)
		if trial%3 == 1 {
			// Exercise the manipulable naive-pricing scheme too: its
			// reports carry many more violations to compare.
			params.Scheme = fpss.SchemeDeclaredCost
		}
		seq, err := core.CheckFaithfulnessCfg(&PlainSystem{Graph: g, Params: params}, core.CheckConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// Alternate pool sizes across trials (every graph still gets a
		// full sequential-vs-parallel comparison).
		workers := 2 + 6*(trial%2)
		par, err := core.CheckFaithfulnessCfg(&PlainSystem{Graph: g, Params: params}, core.CheckConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("trial %d workers %d: parallel report diverges\nseq: %+v\npar: %+v", trial, workers, seq, par)
		}
	}
}

// TestParallelFaithfulCheckMatchesSequentialOracle runs the expensive
// faithful-protocol differential on a smaller graph sample, including
// the full (checker-extended) catalogue. Running under -race with >1
// worker is what certifies the scenario-sharing (read-only topology
// views, pooled networks) as data-race-free.
func TestParallelFaithfulCheckMatchesSequentialOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("faithful differential deviation search is the full lane")
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 4; trial++ {
		var g *graph.Graph
		var err error
		if trial == 0 {
			g = graph.Figure1()
		} else {
			g, err = graph.RandomBiconnected(4+rng.Intn(2), rng.Intn(3), 8, rng)
			if err != nil {
				t.Fatal(err)
			}
		}
		params := DefaultParams(g)
		seq, err := core.CheckFaithfulnessCfg(&FaithfulSystem{Graph: g, Params: params}, core.CheckConfig{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := core.CheckFaithfulnessCfg(&FaithfulSystem{Graph: g, Params: params}, core.CheckConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("trial %d: faithful parallel report diverges\nseq: %+v\npar: %+v", trial, seq, par)
		}
		if !seq.Faithful() {
			t.Fatalf("trial %d: extended FPSS should stay faithful; violations %v", trial, seq.Violations)
		}
	}
}

// TestEarlyStopVerdictOnPlain: early stop must agree with the full
// search's faithful/not-faithful verdict and report the first
// profitable deviation in catalogue order.
func TestEarlyStopVerdictOnPlain(t *testing.T) {
	g := graph.Figure1()
	params := DefaultParams(g)
	full, err := core.CheckFaithfulnessCfg(&PlainSystem{Graph: g, Params: params}, core.CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Faithful() {
		t.Fatal("plain FPSS should not be faithful")
	}
	seq, err := core.CheckFaithfulnessCfg(&PlainSystem{Graph: g, Params: params}, core.CheckConfig{EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.CheckFaithfulnessCfg(&PlainSystem{Graph: g, Params: params}, core.CheckConfig{Workers: 4, EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("early-stop reports diverge\nseq: %+v\npar: %+v", seq, par)
	}
	if seq.Faithful() || len(seq.Violations) != 1 {
		t.Fatalf("early-stop report = %+v, want exactly one violation", seq)
	}
	if seq.Checked > full.Checked {
		t.Errorf("early stop checked %d > full %d", seq.Checked, full.Checked)
	}
	// The reported violation is the first one a sequential full search
	// records (catalogue order: node-major, then deviation order).
	first := full.Violations[0]
	for _, v := range full.Violations {
		if v.Node < first.Node {
			first = v
		}
	}
	if seq.Violations[0].Node != first.Node {
		t.Errorf("early-stop violation node = %d, want first node %d", seq.Violations[0].Node, first.Node)
	}
}

// TestSystemsShareScenarioState: repeated calls must return the same
// shared read-only slices (no per-call rebuilding), and concurrent
// Run must not mutate them.
func TestSystemsShareScenarioState(t *testing.T) {
	g := graph.Figure1()
	sys := &FaithfulSystem{Graph: g, Params: DefaultParams(g)}
	d1, d2 := sys.Deviations(0), sys.Deviations(1)
	if len(d1) == 0 || &d1[0] != &d2[0] {
		t.Error("Deviations should return the shared per-scenario catalogue")
	}
	n1, n2 := sys.Nodes(), sys.Nodes()
	if len(n1) == 0 || &n1[0] != &n2[0] {
		t.Error("Nodes should return the shared per-scenario list")
	}
}
