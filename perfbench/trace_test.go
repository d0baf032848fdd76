package main

import (
	"fmt"
	"testing"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/scenario"
)

// reportBytes renders a report with every field, so two reports are
// equal exactly when their renderings are byte-identical.
func reportBytes(t *testing.T, sys core.System, cfg core.CheckConfig) string {
	t.Helper()
	rep, err := core.CheckFaithfulnessCfg(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%#v", rep)
}

// TestTracedReportIdentical pins the decorator as invisible to the
// checker: for both protocol variants of a static scenario and for
// the per-epoch grid of a churn timeline, the decorated check's
// Report is byte-identical to the undecorated one, unpruned and
// pruned through the kept Bounder, and every play is recorded.
func TestTracedReportIdentical(t *testing.T) {
	static := scenario.Spec{Family: scenario.Random, N: 5, Workload: scenario.WorkloadAllPairs,
		CostModel: scenario.CostUniform, Seed: 3}
	comp, err := static.Compile()
	if err != nil {
		t.Fatal(err)
	}
	dyn := static
	dyn.Churn = scenario.Churn{Epochs: 2, Joins: 1, Leaves: 1, RedrawFraction: 0.25}
	tl, err := churn.Build(dyn)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		sys      func() core.System
		perEpoch bool
		prunes   bool // the variant's bound prunes plays on this scenario
	}{
		{"plain", func() core.System { return comp.PlainSystem() }, false, false},
		{"faithful", func() core.System { return comp.FaithfulSystem() }, false, true},
		{"churn-plain", func() core.System { return churn.NewSystem(tl, churn.Plain) }, true, false},
		{"churn-faithful", func() core.System { return churn.NewSystem(tl, churn.Faithful) }, true, true},
	}
	for _, c := range cases {
		for _, prune := range []core.PruneBound{nil, core.SelfBound} {
			cfg := core.CheckConfig{Workers: 2, PerEpoch: c.perEpoch, PruneBound: prune}
			t.Run(fmt.Sprintf("%s/pruned=%v", c.name, prune != nil), func(t *testing.T) {
				want := reportBytes(t, c.sys(), cfg)
				tr := newTracer()
				sys := traced(c.sys(), tr, tr.id(), "rational.x")
				if _, ok := sys.(core.Bounder); !ok {
					t.Fatal("decorator dropped the Bounder")
				}
				if _, ok := sys.(core.StatefulEpochedSystem); ok != c.perEpoch {
					t.Fatalf("decorator epoched=%v, inner epoched=%v", ok, c.perEpoch)
				}
				if got := reportBytes(t, sys, cfg); got != want {
					t.Fatalf("decorated report differs:\n got %s\nwant %s", got, want)
				}
				rep, err := core.CheckFaithfulnessCfg(c.sys(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if prune != nil && c.prunes && rep.Pruned == 0 {
					t.Fatal("pruned check pruned nothing; the Bounder path is untested")
				}
				if plays := len(tr.named("rational.x.play")); plays != rep.Checked {
					t.Fatalf("recorded %d plays, report checked %d", plays, rep.Checked)
				}
				if snaps := len(tr.named("rational.x.snapshot")); snaps != 1 {
					t.Fatalf("recorded %d snapshots, want 1", snaps)
				}
			})
		}
	}
}
