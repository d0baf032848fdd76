package rational

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// lossParams returns scenario parameters with the loss axis enabled at
// a sub-threshold, bursty rate.
func lossParams(g *graph.Graph, seed uint64) Params {
	p := DefaultParams(g)
	p.Loss = sim.LossModel{Rate: 0.1, Burst: 3, Seed: seed}
	return p
}

// TestLossCatalogueGating: the loss-exploiting family joins the
// catalogue only when the loss axis is enabled — a reliable scenario's
// catalogue (and therefore its reports and goldens) stays
// byte-identical to pre-loss builds.
func TestLossCatalogueGating(t *testing.T) {
	g := graph.Figure1()
	plain := &PlainSystem{Graph: g, Params: DefaultParams(g)}
	lossy := &PlainSystem{Graph: g, Params: lossParams(g, 1)}
	base, withLoss := plain.Deviations(0), lossy.Deviations(0)
	if len(withLoss) != len(base)+len(LossCatalogue(false)) {
		t.Fatalf("lossy catalogue has %d entries, reliable %d, family %d",
			len(withLoss), len(base), len(LossCatalogue(false)))
	}
	for i, d := range base {
		if withLoss[i].Name() != d.Name() {
			t.Fatalf("loss family must append, not reorder: %q vs %q at %d", withLoss[i].Name(), d.Name(), i)
		}
	}
	names := map[string]bool{}
	for _, d := range withLoss {
		if names[d.Name()] {
			t.Fatalf("duplicate deviation name %q", d.Name())
		}
		names[d.Name()] = true
	}
	for _, want := range []string{"fake-loss-drop-adverts", "withhold-acks"} {
		if !names[want] {
			t.Errorf("loss catalogue missing %q", want)
		}
	}
	faithLossy := &FaithfulSystem{Graph: g, Params: lossParams(g, 1)}
	fnames := map[string]bool{}
	for _, d := range faithLossy.Deviations(0) {
		fnames[d.Name()] = true
	}
	if !fnames["misreport-loss-blame"] {
		t.Error("faithful loss catalogue missing misreport-loss-blame")
	}
}

// TestLossDeviationsUnprofitableInFaithful is the headline robustness
// claim: with real loss on every link, the loss-exploiting deviations
// (selective dropping disguised as loss, ack withholding, loss-blame
// misreporting) are still caught and punished — the extended
// specification stays faithful on the enlarged catalogue.
func TestLossDeviationsUnprofitableInFaithful(t *testing.T) {
	g := graph.Figure1()
	sys := &FaithfulSystem{Graph: g, Params: lossParams(g, 5)}
	rep, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Faithful() {
		t.Fatalf("faithful variant admits loss-exploiting profit: %+v", rep.Violations)
	}

	// And they are not merely unprofitable but *flagged*: playing the
	// selective dropper must end in non-progress (detection), not a
	// quietly completed run.
	base, err := sys.Run(-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fake-loss-drop-adverts", "withhold-acks", "misreport-loss-blame"} {
		var dev core.Deviation
		for _, d := range sys.Deviations(0) {
			if d.Name() == name {
				dev = d
			}
		}
		if dev == nil {
			t.Fatalf("deviation %q not in catalogue", name)
		}
		out, err := sys.Run(core.NodeID(2), dev)
		if err != nil {
			t.Fatal(err)
		}
		if out.Completed {
			t.Errorf("%s: deviant run green-lit under loss", name)
		}
		if got, honest := out.Utilities[2], base.Utilities[2]; got >= honest {
			t.Errorf("%s: deviator utility %d >= honest %d", name, got, honest)
		}
	}
}

// TestLossPlainExposesFakeLoss documents the contrast: plain FPSS has
// no checkers, so hiding a selective drop behind the lossy network is
// free — the deviation search must still run it (and may find profit),
// which is exactly the gap the faithful variant closes.
func TestLossPlainExposesFakeLoss(t *testing.T) {
	g := graph.Figure1()
	sys := &PlainSystem{Graph: g, Params: lossParams(g, 5)}
	if _, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{}); err != nil {
		t.Fatal(err)
	}
}

// TestLossReportsWorkerCountInvariant pins the determinism invariant
// under loss: the drop schedules are positional per link and re-seeded
// per play, so the Report must be byte-identical for any worker count.
func TestLossReportsWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 3; trial++ {
		g, err := graph.RandomBiconnected(4+rng.Intn(3), rng.Intn(3), 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		params := lossParams(g, uint64(trial+1))
		for _, mk := range []func() core.System{
			func() core.System { return &PlainSystem{Graph: g, Params: params} },
			func() core.System { return &FaithfulSystem{Graph: g, Params: params} },
		} {
			seq, err := core.CheckFaithfulnessCfg(mk(), core.CheckConfig{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := core.CheckFaithfulnessCfg(mk(), core.CheckConfig{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("trial %d: lossy report differs across worker counts\nseq: %+v\npar: %+v", trial, seq, par)
			}
		}
	}
}

// TestLossStatefulPrunedMatchesRunOracle is the lossy differential:
// the stateful engine (pooled contexts, exec-only overlays, profit
// bounds with full pruned-replay verification) must reproduce the
// legacy Run-based sequential oracle exactly, with loss enabled.
func TestLossStatefulPrunedMatchesRunOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 3; trial++ {
		g, err := graph.RandomBiconnected(4+rng.Intn(3), rng.Intn(3), 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		params := lossParams(g, uint64(trial+11))
		oracle, err := core.CheckFaithfulnessCfg(runOnly{&FaithfulSystem{Graph: g, Params: params}}, core.CheckConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sys := &FaithfulSystem{Graph: g, Params: params}
		pruned, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{
			Workers:      2,
			PruneBound:   core.SelfBound,
			VerifyPruned: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle.Violations, pruned.Violations) {
			t.Fatalf("trial %d: lossy pruned violations diverge\noracle: %+v\ngot: %+v", trial, oracle.Violations, pruned.Violations)
		}
		if pruned.Total() != oracle.Checked {
			t.Fatalf("trial %d: pruned grid %d+%d != oracle grid %d", trial, pruned.Checked, pruned.Pruned, oracle.Checked)
		}
	}
}

// TestLossDeviationsClaimNoBound: the loss family touches protocol and
// checker layers, so no static profit bound is sound for it — both
// systems must decline to bound every entry (an unsound bound would
// silently prune real violations).
func TestLossDeviationsClaimNoBound(t *testing.T) {
	g := graph.Figure1()
	plain := &PlainSystem{Graph: g, Params: lossParams(g, 1)}
	faith := &FaithfulSystem{Graph: g, Params: lossParams(g, 1)}
	for _, forFaithful := range []bool{false, true} {
		for _, d := range LossCatalogue(forFaithful) {
			if d.ExecOnly() {
				t.Errorf("%s: loss deviation claims to be exec-only", d.Name())
			}
			if !forFaithful {
				if _, ok := plain.ProfitUpperBound(0, d, -1); ok {
					t.Errorf("%s: plain system claims a profit bound", d.Name())
				}
			}
			if _, ok := faith.ProfitUpperBound(0, d, -1); ok {
				t.Errorf("%s: faithful system claims a profit bound", d.Name())
			}
		}
	}
}
