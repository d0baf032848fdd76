package core

import "runtime"

// CheckConfig configures CheckFaithfulnessCfg. The zero value is the
// reference oracle: a purely sequential, unpruned search over the
// whole (node, deviation) grid — safe for any System.
type CheckConfig struct {
	// Workers is the worker-pool size for the deviation search.
	// 0 means 1 (the sequential oracle); negative means
	// runtime.NumCPU(). With more than one worker the System's
	// Run/Play methods must be safe for concurrent calls — the
	// rational package's systems are.
	Workers int

	// EarlyStop returns at the first profitable deviation in
	// catalogue order — (node, deviation) pairs enumerated as the
	// sequential loop would visit them. The Report then carries
	// exactly that one violation, and Checked counts the plays a
	// sequential search would have executed (the violation's 1-based
	// position among un-pruned plays).
	EarlyStop bool

	// PerEpoch expands the search grid from (node, deviation) to
	// (node, deviation, epoch): every play pins its deviation to a
	// single epoch of an EpochedSystem, so violations carry the epoch
	// that admits them and a multi-epoch scenario is certified
	// faithful *on every epoch*, not merely in aggregate. The System
	// must implement EpochedSystem (ErrNotEpoched otherwise).
	PerEpoch bool

	// PruneBound, when set, lets the engine skip plays that a static
	// profit bound proves unprofitable: a play is pruned when the
	// bound b (with ok=true) satisfies b <= baseline utility, since a
	// violation requires a strict gain. Pruned plays are counted in
	// Report.Pruned so coverage stays auditable. Use SelfBound for
	// systems that implement Bounder. Soundness is the bound
	// provider's responsibility — see VerifyPruned.
	PruneBound PruneBound

	// VerifyPruned replays every pruned play sequentially after the
	// search and fails the check if any of them beats its baseline —
	// a debug mode that catches unsound PruneBound implementations
	// instead of silently under-reporting.
	VerifyPruned bool
}

// PruneBound returns an upper bound on the deviator's utility for the
// play (node, dev) — pinned to epoch when epoch >= 0, whole-run when
// epoch == -1. ok=false means no bound is available and the play must
// run. A sound bound never undercuts a utility the play could
// actually realize.
type PruneBound func(sys System, deviator NodeID, dev Deviation, epoch int) (int64, bool)

// Bounder is implemented by Systems that can statically bound a
// play's profit from the truthful snapshot — e.g. "an
// execution-phase-only misreport can pocket at most what the deviator
// honestly owes". Wire it into a check with SelfBound.
type Bounder interface {
	// ProfitUpperBound follows the PruneBound contract for this
	// system's own deviations.
	ProfitUpperBound(deviator NodeID, dev Deviation, epoch int) (int64, bool)
}

// SelfBound is a PruneBound that delegates to the System's own
// ProfitUpperBound when it implements Bounder, and declines to bound
// otherwise.
func SelfBound(sys System, deviator NodeID, dev Deviation, epoch int) (int64, bool) {
	if b, ok := sys.(Bounder); ok {
		return b.ProfitUpperBound(deviator, dev, epoch)
	}
	return 0, false
}

// workerCount resolves Workers into the effective pool size.
func (c CheckConfig) workerCount() int {
	switch {
	case c.Workers == 0:
		return 1
	case c.Workers < 0:
		return runtime.NumCPU()
	}
	return c.Workers
}
