package live

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/scenario"
)

// TestServerRouteAndPay serves the paper's Figure-1 scenario and
// checks Route/Pay answers against the central solution.
func TestServerRouteAndPay(t *testing.T) {
	srv, err := NewServer(scenario.Spec{Family: scenario.Figure1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	comp, err := scenario.Spec{Family: scenario.Figure1}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := fpss.ComputeCentral(comp.Graph)
	if err != nil {
		t.Fatal(err)
	}

	n := comp.Graph.N()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			resp := srv.Dispatch(Request{Op: OpRoute, Src: src, Dst: dst})
			if !resp.OK {
				t.Fatalf("route %d->%d: %s", src, dst, resp.Err)
			}
			want := sol.Routing[graph.NodeID(src)][graph.NodeID(dst)]
			if int64(want.Cost) != resp.Cost || len(want.Path) != len(resp.Path) {
				t.Fatalf("route %d->%d: got cost %d path %v, central %+v", src, dst, resp.Cost, resp.Path, want)
			}
			for i, h := range want.Path {
				if int(h) != resp.Path[i] {
					t.Fatalf("route %d->%d hop %d: got %v, central %v", src, dst, i, resp.Path, want.Path)
				}
			}

			pay := srv.Dispatch(Request{Op: OpPay, Src: src, Dst: dst})
			if !pay.OK {
				t.Fatalf("pay %d->%d: %s", src, dst, pay.Err)
			}
			var wantTotal int64
			for _, pe := range sol.Pricing[graph.NodeID(src)][graph.NodeID(dst)] {
				wantTotal += int64(pe.Price)
			}
			if pay.Total != wantTotal {
				t.Fatalf("pay %d->%d: got total %d, central %d", src, dst, pay.Total, wantTotal)
			}
		}
	}

	stats := srv.Dispatch(Request{Op: OpStats})
	if !stats.OK || stats.Stats == nil {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.Stats.Divergence != 0 {
		t.Fatalf("honest reliable epoch diverges from central: %+v", stats.Stats)
	}
	if stats.Stats.Net.Sent == 0 {
		t.Fatalf("resident network reports no construction traffic: %+v", stats.Stats.Net)
	}
}

// TestServerDifferentialSmokeSuite is the tentpole differential: for
// every smoke-suite spec, the quiesced live tables are byte-identical
// to the central solution AND to the event-simulator protocol run.
func TestServerDifferentialSmokeSuite(t *testing.T) {
	suite, ok := scenario.LookupSuite("smoke")
	if !ok {
		t.Fatal("smoke suite not registered")
	}
	for _, sp := range suite.Specs(1) {
		sp := sp
		t.Run(sp.Describe(), func(t *testing.T) {
			t.Parallel()
			srv, err := NewServer(sp)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			liveRouting, livePricing := srv.Tables()

			comp, err := sp.Compile()
			if err != nil {
				t.Fatal(err)
			}
			sol, err := fpss.ComputeCentral(comp.Graph)
			if err != nil {
				t.Fatal(err)
			}
			simRes, err := fpss.Run(fpss.Config{Graph: comp.Graph})
			if err != nil {
				t.Fatal(err)
			}

			for i := 0; i < comp.Graph.N(); i++ {
				id := graph.NodeID(i)
				if !liveRouting[id].Equal(sol.Routing[id]) {
					t.Fatalf("node %d: live routing != central", i)
				}
				if !livePricing[id].Equal(sol.Pricing[id]) {
					t.Fatalf("node %d: live pricing != central", i)
				}
				if !liveRouting[id].Equal(simRes.Nodes[id].Routing()) {
					t.Fatalf("node %d: live routing != simulator", i)
				}
				if !livePricing[id].Equal(simRes.Nodes[id].Pricing()) {
					t.Fatalf("node %d: live pricing != simulator", i)
				}
			}
		})
	}
}

// TestServerChurnAdvance walks a churn timeline live: every epoch
// re-converges in place (no restart) and matches the evolved central
// solution exactly.
func TestServerChurnAdvance(t *testing.T) {
	sp := scenario.Spec{
		Family:   scenario.Random,
		N:        8,
		Workload: scenario.WorkloadAllPairs,
		Seed:     3,
		Churn:    scenario.Churn{Epochs: 3, Joins: 2, Leaves: 1},
	}
	srv, err := NewServer(sp)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Epochs() != 3 {
		t.Fatalf("want 3 epochs, got %d", srv.Epochs())
	}
	for e := 0; ; e++ {
		stats := srv.Dispatch(Request{Op: OpStats})
		if !stats.OK {
			t.Fatal(stats.Err)
		}
		if stats.Stats.Epoch != e {
			t.Fatalf("want epoch %d, got %d", e, stats.Stats.Epoch)
		}
		if stats.Stats.Divergence != 0 {
			t.Fatalf("epoch %d: %d nodes diverge from the evolved central solution", e, stats.Stats.Divergence)
		}
		if e == srv.Epochs()-1 {
			break
		}
		adv := srv.Dispatch(Request{Op: OpInject, Advance: true})
		if !adv.OK {
			t.Fatalf("advance from epoch %d: %s", e, adv.Err)
		}
	}
	// Advancing past the end must fail cleanly.
	if resp := srv.Dispatch(Request{Op: OpInject, Advance: true}); resp.OK {
		t.Fatal("advance past final epoch succeeded")
	}
}

// TestServerInjectDeviant installs a construction-phase deviation on a
// resident node: the epoch re-converges with the manipulated tables
// (divergence > 0 under the declared-cost scheme) and Reset restores
// the honest state.
func TestServerInjectDeviant(t *testing.T) {
	sp := scenario.Spec{Family: scenario.Figure1, Scheme: fpss.SchemeDeclaredCost}
	srv, err := NewServer(sp)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp := srv.Dispatch(Request{Op: OpInject, Node: 2, Deviation: "misreport-cost-inflate"})
	if !resp.OK {
		t.Fatal(resp.Err)
	}
	stats := srv.Dispatch(Request{Op: OpStats}).Stats
	if stats.Deviant != "misreport-cost-inflate" || stats.DeviantNode != 2 {
		t.Fatalf("deviant not recorded: %+v", stats)
	}
	if stats.Divergence == 0 {
		t.Fatal("cost inflation left the converged tables identical to the honest central solution")
	}

	// A checker-only deviation has no live realization.
	if resp := srv.Dispatch(Request{Op: OpInject, Node: 2, Deviation: "misreport-loss-blame"}); resp.OK {
		t.Fatal("injected a deviation with no protocol part")
	}

	if resp := srv.Dispatch(Request{Op: OpInject, Reset: true}); !resp.OK {
		t.Fatal(resp.Err)
	}
	stats = srv.Dispatch(Request{Op: OpStats}).Stats
	if stats.Deviant != "" || stats.Divergence != 0 {
		t.Fatalf("reset did not restore the honest epoch: %+v", stats)
	}
}

// TestServerPayOverflow: a wire-supplied packet count large enough to
// overflow the price × packets products (or their sum) must fail the
// request, never answer OK with wrapped amounts. Every answer is
// checked against exact big-integer arithmetic over the central
// prices.
func TestServerPayOverflow(t *testing.T) {
	sp := scenario.Spec{Family: scenario.Random, N: 8, Seed: 1}
	srv, err := NewServer(sp)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	comp, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := fpss.ComputeCentral(comp.Graph)
	if err != nil {
		t.Fatal(err)
	}

	const packets = math.MaxInt64 / 2
	overflows := 0
	n := comp.Graph.N()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			want := make(map[int]*big.Int)
			total := new(big.Int)
			exact := true
			for k, pe := range sol.Pricing[graph.NodeID(src)][graph.NodeID(dst)] {
				amount := new(big.Int).Mul(big.NewInt(int64(pe.Price)), big.NewInt(packets))
				want[int(k)] = amount
				total.Add(total, amount)
				exact = exact && amount.IsInt64()
			}
			exact = exact && total.IsInt64()

			resp := srv.Dispatch(Request{Op: OpPay, Src: src, Dst: dst, Packets: packets})
			if !exact {
				overflows++
				if resp.OK {
					t.Fatalf("pay %d->%d: overflowing payment answered OK: %+v", src, dst, resp)
				}
				continue
			}
			if !resp.OK {
				t.Fatalf("pay %d->%d: %s", src, dst, resp.Err)
			}
			if resp.Total != total.Int64() || len(resp.Payments) != len(want) {
				t.Fatalf("pay %d->%d: got %+v, want total %v over %d transits", src, dst, resp, total, len(want))
			}
			for _, p := range resp.Payments {
				if w, ok := want[p.To]; !ok || p.Amount != w.Int64() {
					t.Fatalf("pay %d->%d: transit %d amount %d, want %v", src, dst, p.To, p.Amount, w)
				}
			}
		}
	}
	if overflows == 0 {
		t.Fatal("no pair overflows: the packet count does not exercise the check")
	}
}
