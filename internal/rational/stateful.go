package rational

import (
	"errors"
	"fmt"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/faithful"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/settle"
	"repro/internal/sign"
	"repro/internal/sim"
)

// This file implements core.StatefulSystem for both protocol systems:
// the truthful run is snapshotted once per scenario (converged table
// views, honest outcome, obligations, audit bank) and every deviant
// play overlays it — execution-phase-only deviations skip the
// protocol simulation entirely, and full plays draw their network,
// bank, and result maps from the worker's play-context arena.

// errForeignSnapshot rejects a Play against a snapshot another system
// took: the overlay fast paths read the snapshot's concrete state.
var errForeignSnapshot = errors.New("rational: play against a foreign snapshot")

// arenaKey keys the rational play arena in a core.PlayContext
// (unexported type per the context.Context convention, so the churn
// package's arena coexists without colliding).
type arenaKey struct{}

// playArena is the per-worker reusable state behind Play: a
// caller-owned simulator network and bank (consolidating what used to
// cycle through the sim/faithful package pools under contention), and
// the per-play maps that deviation searches otherwise reallocate tens
// of thousands of times.
type playArena struct {
	net      *sim.Network
	bank     *bank.Bank
	util     map[core.NodeID]int64
	routing  map[graph.NodeID]fpss.RoutingTable
	pricing  map[graph.NodeID]fpss.PricingTable
	declared fpss.CostTable
	pstrat   map[graph.NodeID]*fpss.Strategy
	fstrat   map[graph.NodeID]*faithful.Strategy
	hooks    map[graph.NodeID]func(fpss.PaymentList) fpss.PaymentList
}

// arenaOf returns the context's rational arena, building it on first
// use.
func arenaOf(ctx *core.PlayContext) *playArena {
	return ctx.Value(arenaKey{}, func() any { return &playArena{} }).(*playArena)
}

func (a *playArena) network() *sim.Network {
	if a.net == nil {
		a.net = sim.NewNetwork()
	}
	return a.net
}

func (a *playArena) auditBank() *bank.Bank {
	if a.bank == nil {
		a.bank = new(bank.Bank)
	}
	return a.bank
}

// reused returns the arena map *m emptied for the next play, making
// it with the size hint on first use. Clearing keeps the buckets, so
// steady-state plays do not reallocate.
func reused[M ~map[K]V, K comparable, V any](m *M, hint int) M {
	if *m == nil {
		*m = make(M, hint)
	} else {
		clear(*m)
	}
	return *m
}

// plainState is PlainSystem's truthful snapshot: the honest converged
// table views, declared costs, honest outcome, and each source's
// honest obligation total (the static profit ceiling of a payment
// underreport). Immutable once built; shared by every worker.
type plainState struct {
	base     core.Outcome
	routing  map[graph.NodeID]fpss.RoutingTable
	pricing  map[graph.NodeID]fpss.PricingTable
	declared fpss.CostTable
	owed     map[graph.NodeID]int64
	// batch is the honest settlement workload (nil unless the shard
	// axis is enabled) — shared by every settle-only play.
	batch *settle.Batch
}

// Baseline implements core.TruthfulState.
func (st *plainState) Baseline() core.Outcome { return st.base }

var _ core.StatefulSystem = (*PlainSystem)(nil)
var _ core.Bounder = (*PlainSystem)(nil)

// Snapshot implements core.StatefulSystem: one honest protocol run,
// retained. Idempotent — the snapshot is computed once per system and
// shared (it is read-only), so Bounder and repeated checks reuse it.
func (s *PlainSystem) Snapshot() (core.TruthfulState, error) {
	s.scen.init(s.Graph, s.Params, false)
	s.snapOnce.Do(func() {
		var st *plainState
		if sol := s.seed; sol != nil && !s.Params.Loss.Enabled() {
			// Seeded: the central solution is the converged honest
			// construction (honest nodes declare true costs), so the
			// snapshot shares its immutable tables outright and only the
			// execution tail below runs.
			st = &plainState{
				routing:  sol.Routing,
				pricing:  sol.Pricing,
				declared: sol.Costs,
				owed:     make(map[graph.NodeID]int64, len(sol.Costs)),
			}
		} else {
			res, err := fpss.Run(fpss.Config{Graph: s.Graph, Loss: s.Params.Loss})
			if err != nil {
				s.snapErr = fmt.Errorf("plain run: %w", err)
				return
			}
			n := len(res.Nodes)
			st = &plainState{
				routing:  make(map[graph.NodeID]fpss.RoutingTable, n),
				pricing:  make(map[graph.NodeID]fpss.PricingTable, n),
				declared: make(fpss.CostTable, n),
				owed:     make(map[graph.NodeID]int64, n),
			}
			for id, node := range res.Nodes {
				// Quiescent-network views, retained past the nodes'
				// lifetime: converged tables are immutable.
				st.routing[id] = node.RoutingView()
				st.pricing[id] = node.PricingView()
				st.declared[id] = node.DeclaredCost()
			}
		}
		exec, err := s.executeOn(st, nil)
		if err != nil {
			s.snapErr = err
			return
		}
		st.base = core.Outcome{Utilities: make(map[core.NodeID]int64, len(exec.Utilities)), Completed: true}
		for id, u := range exec.Utilities {
			st.base.Utilities[core.NodeID(id)] = u
		}
		for id, ob := range exec.Obligations {
			st.owed[id] = ob.Total()
		}
		if s.Params.Settle.Enabled() {
			st.batch = settleBatch(exec)
		}
		s.snap = st
	})
	if s.snapErr != nil {
		return nil, s.snapErr
	}
	return s.snap, nil
}

// executeOn runs execution-phase accounting over the snapshot's
// tables — the shared tail of Snapshot and the exec-only fast path.
func (s *PlainSystem) executeOn(st *plainState, hooks map[graph.NodeID]func(fpss.PaymentList) fpss.PaymentList) (*fpss.ExecResult, error) {
	exec, err := fpss.Execute(st.routing, st.pricing, fpss.ExecConfig{
		TrueCosts:          s.scen.trueCosts,
		DeclaredCosts:      st.declared,
		Traffic:            s.Params.Traffic,
		Flows:              s.scen.flows,
		DeliveryValue:      s.Params.DeliveryValue,
		UndeliveredPenalty: s.Params.UndeliveredPenalty,
		Scheme:             s.Params.Scheme,
		ReportPayment:      hooks,
	})
	if err != nil {
		return nil, fmt.Errorf("plain execute: %w", err)
	}
	return exec, nil
}

// Play implements core.StatefulSystem. Execution-only deviations
// (payment misreports) overlay the snapshot without re-running the
// protocol — the honest construction is deterministic, so the result
// is byte-identical to a full Run. Everything else replays the
// protocol through the arena's network. The returned Outcome lives in
// the context's arena (valid until the next Play on the same context).
func (s *PlainSystem) Play(ctx *core.PlayContext, st core.TruthfulState, deviator core.NodeID, dev core.Deviation) (core.Outcome, error) {
	snap, ok := st.(*plainState)
	if !ok {
		return core.Outcome{}, errForeignSnapshot
	}
	if deviator < 0 || dev == nil {
		return snap.base, nil
	}
	d, ok := dev.(*Deviation)
	if !ok {
		return core.Outcome{}, fmt.Errorf("rational: foreign deviation %q", dev.Name())
	}
	ar := arenaOf(ctx)
	if d.ExecOnly() {
		hooks := reused(&ar.hooks, 1)
		hooks[graph.NodeID(deviator)] = d.reportPayment
		exec, err := s.executeOn(snap, hooks)
		if err != nil {
			return core.Outcome{}, err
		}
		out := core.Outcome{Utilities: reused(&ar.util, len(exec.Utilities)), Completed: true}
		for id, u := range exec.Utilities {
			out.Utilities[core.NodeID(id)] = u
		}
		return out, nil
	}
	if d.SettleOnly() && snap.batch != nil {
		// The construction and execution phases stay honest: overlay
		// the deviant settlement on the snapshot's batch directly.
		out := core.Outcome{Utilities: reused(&ar.util, len(snap.base.Utilities)), Completed: true}
		for id, u := range snap.base.Utilities {
			out.Utilities[id] = u
		}
		s.applySettlement(&out, snap.batch, deviator, d)
		return out, nil
	}
	return s.play(deviator, d, ar)
}

// ProfitUpperBound implements core.Bounder: a catalogue-built payment
// underreport can pocket at most what the deviator honestly owes its
// transit nodes — everything else in its utility is untouched by an
// execution-phase-only deviation. Other deviations get no bound.
func (s *PlainSystem) ProfitUpperBound(deviator core.NodeID, dev core.Deviation, _ int) (int64, bool) {
	d, ok := dev.(*Deviation)
	if !ok || !d.boundedExec {
		return 0, false
	}
	st, err := s.Snapshot()
	if err != nil {
		return 0, false
	}
	snap := st.(*plainState)
	base, ok := snap.base.Utilities[deviator]
	if !ok {
		return 0, false
	}
	return base + snap.owed[graph.NodeID(deviator)], true
}

// faithfulState is FaithfulSystem's truthful snapshot: the honest
// outcome plus the certified post-construction state (tables and
// audit bank) when the honest run was green-lit.
type faithfulState struct {
	base core.Outcome
	exec faithful.ExecState
	ok   bool // exec is valid (honest run completed undetected)
	// batch is the honest settlement workload (nil unless the shard
	// axis is enabled and the honest run was certified).
	batch *settle.Batch
}

// Baseline implements core.TruthfulState.
func (st *faithfulState) Baseline() core.Outcome { return st.base }

var _ core.StatefulSystem = (*FaithfulSystem)(nil)
var _ core.Bounder = (*FaithfulSystem)(nil)

// Snapshot implements core.StatefulSystem (see PlainSystem.Snapshot).
// The snapshot owns a dedicated bank so its audit view outlives the
// run without touching the package pool.
func (s *FaithfulSystem) Snapshot() (core.TruthfulState, error) {
	s.scen.init(s.Graph, s.Params, true)
	s.snapOnce.Do(func() {
		if sol := s.seed; sol != nil && !s.Params.Loss.Enabled() {
			// Seeded: an honest construction always converges to the
			// central solution and always passes the bank checkpoint, so
			// the certified post-checkpoint state can be synthesized
			// without simulating phases 1/2. The audit bank only needs
			// its node list (the checker-assignment keys, exactly what
			// Run registers via Reuse); the execution phase and payment
			// audit then replay through the same execAndAudit tail Run
			// uses, making the outcome byte-identical.
			auditor := new(bank.Bank)
			auditor.Reuse(sign.NewAuthority(), s.scen.checkers)
			st := &faithfulState{
				exec: faithful.ExecState{
					Routing:   sol.Routing,
					Pricing:   sol.Pricing,
					Declared:  sol.Costs,
					TrueCosts: s.scen.trueCosts,
					Bank:      auditor,
				},
			}
			res, err := faithful.ExecPlay(st.exec, s.runConfig(nil, nil, nil), nil)
			if err != nil {
				s.snapErr = fmt.Errorf("faithful seeded snapshot: %w", err)
				return
			}
			st.base = outcomeOf(res, nil)
			st.ok = true
			if s.Params.Settle.Enabled() && res.Exec != nil {
				st.batch = settleBatch(res.Exec)
			}
			s.snap = st
			return
		}
		auditor := new(bank.Bank)
		res, err := faithful.Run(s.runConfig(nil, nil, auditor))
		if err != nil {
			s.snapErr = fmt.Errorf("faithful run: %w", err)
			return
		}
		st := &faithfulState{base: outcomeOf(res, nil)}
		if res.Completed && len(res.Detections) == 0 {
			n := len(res.Nodes)
			st.exec = faithful.ExecState{
				Routing:   make(map[graph.NodeID]fpss.RoutingTable, n),
				Pricing:   make(map[graph.NodeID]fpss.PricingTable, n),
				Declared:  make(fpss.CostTable, n),
				TrueCosts: s.scen.trueCosts,
				Bank:      auditor,
			}
			for id, node := range res.Nodes {
				st.exec.Routing[id] = node.RoutingView()
				st.exec.Pricing[id] = node.PricingView()
				st.exec.Declared[id] = node.DeclaredCost()
			}
			st.ok = true
			if s.Params.Settle.Enabled() && res.Exec != nil {
				st.batch = settleBatch(res.Exec)
			}
		}
		s.snap = st
	})
	if s.snapErr != nil {
		return nil, s.snapErr
	}
	return s.snap, nil
}

// runConfig assembles the faithful.Config shared by Run, Snapshot and
// the arena-backed plays.
func (s *FaithfulSystem) runConfig(strategies map[graph.NodeID]*faithful.Strategy, net *sim.Network, b *bank.Bank) faithful.Config {
	return faithful.Config{
		Graph:              s.Graph,
		Strategies:         strategies,
		Traffic:            s.Params.Traffic,
		Flows:              s.scen.flows,
		Neighbors:          s.scen.neighbors,
		Checkers:           s.scen.checkers,
		DeliveryValue:      s.Params.DeliveryValue,
		UndeliveredPenalty: s.Params.UndeliveredPenalty,
		NonProgressPenalty: s.Params.NonProgressPenalty,
		Epsilon:            s.Params.Epsilon,
		CheckerLimit:       s.Params.CheckerLimit,
		Loss:               s.Params.Loss,
		Net:                net,
		Bank:               b,
	}
}

// outcomeOf maps a faithful result onto a core.Outcome, writing
// utilities into util when supplied (arena reuse) and allocating
// otherwise.
func outcomeOf(res *faithful.Result, util map[core.NodeID]int64) core.Outcome {
	if util == nil {
		util = make(map[core.NodeID]int64, len(res.Utilities))
	}
	out := core.Outcome{Utilities: util, Completed: res.Completed}
	for id, u := range res.Utilities {
		out.Utilities[core.NodeID(id)] = u
	}
	for _, det := range res.Detections {
		if det.Principal >= 0 {
			out.Detected = append(out.Detected, core.NodeID(det.Principal))
		}
	}
	for _, f := range res.PaymentFindings {
		out.Detected = append(out.Detected, core.NodeID(f.Node))
	}
	return out
}

// Play implements core.StatefulSystem (see PlainSystem.Play). The
// execution-only overlay replays accounting and the payment audit on
// the certified snapshot through faithful.ExecPlay.
func (s *FaithfulSystem) Play(ctx *core.PlayContext, st core.TruthfulState, deviator core.NodeID, dev core.Deviation) (core.Outcome, error) {
	snap, ok := st.(*faithfulState)
	if !ok {
		return core.Outcome{}, errForeignSnapshot
	}
	if deviator < 0 || dev == nil {
		return snap.base, nil
	}
	d, ok := dev.(*Deviation)
	if !ok {
		return core.Outcome{}, fmt.Errorf("rational: foreign deviation %q", dev.Name())
	}
	ar := arenaOf(ctx)
	if d.ExecOnly() && snap.ok {
		hooks := reused(&ar.hooks, 1)
		hooks[graph.NodeID(deviator)] = d.reportPayment
		res, err := faithful.ExecPlay(snap.exec, s.runConfig(nil, nil, nil), hooks)
		if err != nil {
			return core.Outcome{}, fmt.Errorf("faithful run: %w", err)
		}
		return outcomeOf(res, reused(&ar.util, len(res.Utilities))), nil
	}
	if d.SettleOnly() && snap.ok && snap.batch != nil {
		// Everything up to the settlement window is honest and
		// certified: overlay the deviant 2PC settlement on the
		// snapshot's batch directly.
		out := core.Outcome{Utilities: reused(&ar.util, len(snap.base.Utilities)), Completed: snap.base.Completed}
		for id, u := range snap.base.Utilities {
			out.Utilities[id] = u
		}
		if err := s.applySettlement(&out, snap.batch, deviator, d); err != nil {
			return core.Outcome{}, err
		}
		return out, nil
	}
	return s.play(deviator, d, ar)
}

// ProfitUpperBound implements core.Bounder: under the extended
// specification the bank settles any DATA4 misreport back to the true
// obligation and fines ε above the attempted deviation, so an
// execution-phase-only deviation can never beat the honest baseline —
// whatever its hook reports. The same ceiling holds for settle-only
// deviations on a reliable network with a plan-derived fault schedule:
// the crash-tolerant 2PC still commits every transfer (the settle
// sweeps pin this), so the deviator's balance delta is zero and a flag
// only subtracts ε. Under lossy links or a custom fault override,
// infrastructure aborts can genuinely shift balances, so no bound is
// claimed there; construction and checker deviations get none either.
func (s *FaithfulSystem) ProfitUpperBound(deviator core.NodeID, dev core.Deviation, _ int) (int64, bool) {
	d, ok := dev.(*Deviation)
	if !ok {
		return 0, false
	}
	settleOnly := d.SettleOnly() && !s.Params.Loss.Enabled() && s.Params.Settle.FaultOverride == nil
	if !d.ExecOnly() && !settleOnly {
		return 0, false
	}
	st, err := s.Snapshot()
	if err != nil {
		return 0, false
	}
	snap := st.(*faithfulState)
	if !snap.ok {
		return 0, false
	}
	base, ok := snap.base.Utilities[deviator]
	if !ok {
		return 0, false
	}
	return base, true
}
