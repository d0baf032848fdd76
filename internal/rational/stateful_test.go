package rational

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fpss"
	"repro/internal/graph"
)

// runOnly hides a System's stateful and bounder faces, so the engine
// falls back to the legacy Run-per-play path — the kept oracle the
// snapshot/overlay/arena machinery must match byte for byte.
type runOnly struct{ sys core.System }

func (r runOnly) Nodes() []core.NodeID                      { return r.sys.Nodes() }
func (r runOnly) Deviations(n core.NodeID) []core.Deviation { return r.sys.Deviations(n) }
func (r runOnly) Run(d core.NodeID, dev core.Deviation) (core.Outcome, error) {
	return r.sys.Run(d, dev)
}

// TestStatefulCheckMatchesRunOracle is the overhaul's acceptance gate:
// over 100+ seeded scenarios the snapshot/COW/arena engine — pooled
// contexts, exec-only overlays, and profit-bound pruning with every
// pruned play replayed and re-verified — must reproduce the legacy
// Run-based sequential oracle exactly. Run under -race, the shared
// snapshots and per-worker arenas are also certified race-free.
func TestStatefulCheckMatchesRunOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("differential deviation search over 100 graphs is the full lane")
	}
	rng := rand.New(rand.NewSource(11))
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
			params.Scheme = fpss.SchemeDeclaredCost
		}
		oracle, err := core.CheckFaithfulnessCfg(runOnly{&PlainSystem{Graph: g, Params: params}}, core.CheckConfig{})
		if err != nil {
			t.Fatal(err)
		}

		// Pooled + COW, no pruning: the whole Report must match.
		workers := 1 + 3*(trial%2)
		sys := &PlainSystem{Graph: g, Params: params}
		got, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle, got) {
			t.Fatalf("trial %d workers %d: stateful report diverges\noracle: %+v\ngot:    %+v", trial, workers, oracle, got)
		}

		// With pruning: identical violations, full-grid accounting, and
		// every pruned play replayed against the bound (stride 1).
		pruned, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{
			Workers:      workers,
			PruneBound:   core.SelfBound,
			VerifyPruned: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle.Violations, pruned.Violations) {
			t.Fatalf("trial %d: pruned violations diverge\noracle: %+v\ngot:    %+v", trial, oracle.Violations, pruned.Violations)
		}
		if pruned.Total() != oracle.Checked {
			t.Fatalf("trial %d: pruned grid %d+%d != oracle grid %d", trial, pruned.Checked, pruned.Pruned, oracle.Checked)
		}
	}
}

// TestFaithfulStatefulMatchesRunOracle is the faithful-side
// differential: the certified snapshot's exec-only overlay (including
// the payment re-audit) and the base-utility prune bound must agree
// with the Run oracle. The faithful catalogue is where pruning
// actually fires, so the accounting is asserted to be non-trivial.
func TestFaithfulStatefulMatchesRunOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("faithful differential deviation search is the full lane")
	}
	rng := rand.New(rand.NewSource(23))
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
		oracle, err := core.CheckFaithfulnessCfg(runOnly{&FaithfulSystem{Graph: g, Params: params}}, core.CheckConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sys := &FaithfulSystem{Graph: g, Params: params}
		got, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle, got) {
			t.Fatalf("trial %d: faithful stateful report diverges\noracle: %+v\ngot:    %+v", trial, oracle, got)
		}
		pruned, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{
			Workers:      4,
			PruneBound:   core.SelfBound,
			VerifyPruned: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle.Violations, pruned.Violations) {
			t.Fatalf("trial %d: pruned faithful violations diverge", trial)
		}
		if pruned.Total() != oracle.Checked {
			t.Fatalf("trial %d: pruned grid %d+%d != oracle grid %d", trial, pruned.Checked, pruned.Pruned, oracle.Checked)
		}
		if pruned.Pruned == 0 {
			t.Fatalf("trial %d: expected the faithful exec-only bound to prune some plays", trial)
		}
	}
}

// TestUnsoundPruneBoundCaught: a deliberately wrong upper bound — one
// that claims every play is unprofitable — must be caught by the
// VerifyPruned replay on plain FPSS, where underreports genuinely
// profit. Without verification the same bound silently skips the
// violations, which is exactly why the debug replay exists.
func TestUnsoundPruneBoundCaught(t *testing.T) {
	g := graph.Figure1()
	sys := &PlainSystem{Graph: g, Params: DefaultParams(g)}
	lying := func(s core.System, deviator core.NodeID, dev core.Deviation, epoch int) (int64, bool) {
		st, err := sys.Snapshot()
		if err != nil {
			return 0, false
		}
		return st.Baseline().Utilities[deviator], true // "nothing ever profits"
	}
	_, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{
		PruneBound:   lying,
		VerifyPruned: true,
	})
	if err == nil {
		t.Fatal("unsound bound on a manipulable system must fail verification")
	}
	if !strings.Contains(err.Error(), "unsound prune bound") {
		t.Fatalf("unexpected verification error: %v", err)
	}

	// The system's own bound survives the same full-replay audit.
	if _, err := core.CheckFaithfulnessCfg(sys, core.CheckConfig{
		PruneBound:   core.SelfBound,
		VerifyPruned: true,
	}); err != nil {
		t.Fatalf("self bound failed verification: %v", err)
	}
}

// TestPrunedAccounting: Checked + Pruned must always equal the full
// grid, and the plain system must never prune its own profitable
// underreports (their bound exceeds the baseline exactly when the
// deviator owes anyone money).
func TestPrunedAccounting(t *testing.T) {
	g := graph.Figure1()
	params := DefaultParams(g)
	full, err := core.CheckFaithfulnessCfg(&PlainSystem{Graph: g, Params: params}, core.CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Pruned != 0 || full.Total() != full.Checked {
		t.Fatalf("unpruned report miscounts: %+v", full)
	}
	pruned, err := core.CheckFaithfulnessCfg(&PlainSystem{Graph: g, Params: params}, core.CheckConfig{
		PruneBound: core.SelfBound,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Total() != full.Checked {
		t.Fatalf("pruned grid %d+%d != full grid %d", pruned.Checked, pruned.Pruned, full.Checked)
	}
	if !reflect.DeepEqual(full.Violations, pruned.Violations) {
		t.Fatalf("pruning changed the verdict: %+v vs %+v", full.Violations, pruned.Violations)
	}
}

// TestPlayRejectsForeignSnapshot: a Play against another system's
// snapshot is a caller bug, reported as an error rather than silently
// answered by a fresh Run.
func TestPlayRejectsForeignSnapshot(t *testing.T) {
	g := graph.Figure1()
	plain := &PlainSystem{Graph: g, Params: DefaultParams(g)}
	faith := &FaithfulSystem{Graph: g, Params: DefaultParams(g)}
	for _, tc := range []struct {
		sys, other core.StatefulSystem
	}{{plain, faith}, {faith, plain}} {
		st, err := tc.other.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		dev := tc.sys.Deviations(0)[0]
		if _, err := tc.sys.Play(core.NewPlayContext(), st, 0, dev); !errors.Is(err, errForeignSnapshot) {
			t.Errorf("%T: err = %v, want errForeignSnapshot", tc.sys, err)
		}
	}
}
