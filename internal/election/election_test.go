package election

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func topo(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := graph.RandomBiconnected(n, n/2, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func cfg(t *testing.T, variant Variant, powers []int64, seed int64) Config {
	t.Helper()
	return Config{
		Topology:           topo(t, len(powers), seed),
		Powers:             powers,
		Variant:            variant,
		ServiceValue:       1,
		CostScale:          1200,
		NonProgressPenalty: 100_000,
	}
}

func TestHonestNaiveElectsMostPowerful(t *testing.T) {
	c := cfg(t, Naive, []int64{3, 9, 5, 2}, 1)
	res, err := Run(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("honest run did not complete")
	}
	if res.Leader != 1 {
		t.Errorf("leader = %d, want 1 (power 9)", res.Leader)
	}
	if res.Payment != 0 {
		t.Errorf("naive variant pays %d, want 0", res.Payment)
	}
}

func TestHonestFaithfulElectsMostPowerful(t *testing.T) {
	c := cfg(t, Faithful, []int64{3, 9, 5, 2}, 2)
	res, err := Run(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader != 1 {
		t.Errorf("leader = %d, want 1 (cheapest server)", res.Leader)
	}
	// Vickrey payment: second-lowest cost = cost of power-5 node = 240.
	if res.Payment != 240 {
		t.Errorf("payment = %d, want 240", res.Payment)
	}
	// Leader profits: payment ≥ own cost (1200/9 = 133).
	if res.Payment < c.ServingCost(1) {
		t.Error("leader paid below cost")
	}
}

func TestNaiveDodgingProfits(t *testing.T) {
	c := cfg(t, Naive, []int64{3, 9, 5, 2}, 3)
	honest, err := Run(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	dodge, err := Run(c, map[graph.NodeID]*Strategy{
		1: {Declare: func(int64) int64 { return 0 }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dodge.Leader == 1 {
		t.Fatal("dodger still elected")
	}
	if dodge.Utilities[1] <= honest.Utilities[1] {
		t.Errorf("dodging should strictly profit in naive spec: honest %d, dodge %d",
			honest.Utilities[1], dodge.Utilities[1])
	}
}

func TestNaiveSystemViolatesIC(t *testing.T) {
	sys := &System{Cfg: cfg(t, Naive, []int64{3, 9, 5, 2}, 4)}
	rep, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.IC() {
		t.Error("naive election should violate IC (the §3 story)")
	}
}

func TestFaithfulSystemIsFaithful(t *testing.T) {
	profiles := [][]int64{
		{3, 9, 5, 2},
		{7, 7, 7, 7},
		{1, 2, 3, 4, 5},
		{40, 13, 2, 28},
	}
	for pi, powers := range profiles {
		sys := &System{Cfg: cfg(t, Faithful, powers, int64(10+pi))}
		rep, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Faithful() {
			t.Errorf("profile %v: violations %v", powers, rep.Violations)
		}
	}
}

func TestTamperedRelayCausesNonProgressOrNoEffect(t *testing.T) {
	c := cfg(t, Faithful, []int64{3, 9, 5, 2}, 5)
	res, err := Run(c, map[graph.NodeID]*Strategy{
		0: {Relay: func(_ graph.NodeID, r Report) (Report, bool) {
			if r.Origin != 0 {
				r.Value += 777
			}
			return r, true
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		// Tampered copies all arrived late: outcome must be untainted.
		if res.Leader != 1 {
			t.Errorf("tamper corrupted a completed run: leader %d", res.Leader)
		}
	} else {
		for id, u := range res.Utilities {
			if u != -c.NonProgressPenalty {
				t.Errorf("node %d utility %d, want non-progress penalty", id, u)
			}
		}
	}
}

func TestDroppedRelaysToleratedByBiconnectivity(t *testing.T) {
	// Dropping relays alone cannot block the flood in a biconnected
	// graph: every report still reaches everyone via another path.
	c := cfg(t, Faithful, []int64{3, 9, 5, 2, 6, 8}, 6)
	res, err := Run(c, map[graph.NodeID]*Strategy{
		2: {Relay: func(graph.NodeID, Report) (Report, bool) { return Report{}, false }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("drop-only deviation should not block a biconnected flood")
	}
	if res.Leader != 1 {
		t.Errorf("leader = %d, want 1", res.Leader)
	}
}

func TestVickreyTieBreak(t *testing.T) {
	reports := map[graph.NodeID]int64{0: 5, 1: 5, 2: 9}
	w, p := vickreyProcurement(reports)
	if w != 0 {
		t.Errorf("winner = %d, want 0 (lowest ID on ties)", w)
	}
	if p != 5 {
		t.Errorf("payment = %d, want 5", p)
	}
}

func TestVickreySingleNode(t *testing.T) {
	w, p := vickreyProcurement(map[graph.NodeID]int64{3: 7})
	if w != 3 || p != 7 {
		t.Errorf("single-node = %d/%d, want 3/7", w, p)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Error("nil topology should error")
	}
	c := cfg(t, Naive, []int64{1, 2, 3, 4}, 7)
	c.Powers = []int64{1}
	if _, err := Run(c, nil); err == nil {
		t.Error("power length mismatch should error")
	}
}

func TestServingCostGuards(t *testing.T) {
	c := Config{Powers: []int64{0, 4}, CostScale: 100}
	if c.ServingCost(0) != 100 {
		t.Errorf("zero power cost = %d, want CostScale", c.ServingCost(0))
	}
	if c.ServingCost(1) != 25 {
		t.Errorf("cost = %d, want 25", c.ServingCost(1))
	}
}

func TestVariantString(t *testing.T) {
	if Naive.String() != "naive" || Faithful.String() != "faithful" {
		t.Error("Variant.String wrong")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant should stringify")
	}
}
