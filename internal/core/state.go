package core

// PlayContext is the arena a worker threads through consecutive plays
// so steady-state plays can reuse graph scratch, pooled networks,
// bank ledgers, and result maps instead of re-materializing them. The
// engine owns one context per worker and never shares a context
// between goroutines; a System's Play may therefore mutate it freely.
//
// Ownership contract: anything a Play returns out of the context —
// in particular the Outcome — is valid only until the next Play on
// the same context. The engine honors this by extracting what it
// needs (the deviator's utility) before reusing the context.
type PlayContext struct {
	scratch map[any]any
}

// NewPlayContext returns an empty context. Exposed for oracles, tests
// and one-shot runs that drive StatefulSystem.Play directly; the
// engine builds its own.
func NewPlayContext() *PlayContext {
	return &PlayContext{}
}

// Value returns the context's entry for key, calling mk to build it
// on first use. Keys follow the context.Context convention: packages
// key with unexported types of their own, so the rational and churn
// arenas coexist in one context without colliding.
func (c *PlayContext) Value(key any, mk func() any) any {
	if v, ok := c.scratch[key]; ok {
		return v
	}
	if c.scratch == nil {
		c.scratch = make(map[any]any)
	}
	v := mk()
	c.scratch[key] = v
	return v
}

// TruthfulState is an immutable snapshot of the honest run: whatever
// per-scenario state a System computes once (converged routing and
// pricing tables, advertisements, ledgers) so that deviant plays can
// overlay it copy-on-write instead of rebuilding it. Implementations
// must be safe for concurrent reads — every worker plays against the
// same snapshot.
type TruthfulState interface {
	// Baseline returns the honest outcome the snapshot embeds. The
	// returned Outcome is shared and read-only.
	Baseline() Outcome
}

// StatefulSystem splits the monolithic System.Run lifecycle into an
// explicit snapshot/play pair: Snapshot computes the truthful state
// once, Play runs one deviant overlay against it. CheckFaithfulnessCfg
// uses this interface when available (building the snapshot once and
// fanning plays over worker-owned contexts) and falls back to
// System.Run otherwise — see AsStateful.
type StatefulSystem interface {
	System
	// Snapshot runs the suggested specification for everyone and
	// captures the truthful state. Equivalent to Run(-1, nil) plus
	// whatever the system wants to retain from that run.
	Snapshot() (TruthfulState, error)
	// Play executes one deviant play against the snapshot. The
	// returned Outcome may live in the context's arena: it is valid
	// only until the next Play on the same context (see PlayContext).
	Play(ctx *PlayContext, st TruthfulState, deviator NodeID, dev Deviation) (Outcome, error)
}

// StatefulEpochedSystem is the epoch-pinned analogue for
// EpochedSystem implementations.
type StatefulEpochedSystem interface {
	EpochedSystem
	StatefulSystem
	// PlayEpoch is Play with the deviation pinned to a single epoch,
	// mirroring EpochedSystem.RunEpoch.
	PlayEpoch(ctx *PlayContext, st TruthfulState, deviator NodeID, dev Deviation, epoch int) (Outcome, error)
}

// AsStateful adapts any legacy System to StatefulSystem so existing
// differential oracles keep working unchanged: Snapshot is Run(-1,
// nil) and Play ignores the snapshot and context, re-running from
// scratch. Systems that already implement StatefulSystem are returned
// as-is.
func AsStateful(sys System) StatefulSystem {
	if ss, ok := sys.(StatefulSystem); ok {
		return ss
	}
	return legacyStateful{sys}
}

type legacyStateful struct {
	System
}

type legacySnapshot struct {
	base Outcome
}

func (s legacySnapshot) Baseline() Outcome { return s.base }

func (a legacyStateful) Snapshot() (TruthfulState, error) {
	out, err := a.System.Run(-1, nil)
	if err != nil {
		return nil, err
	}
	return legacySnapshot{base: out}, nil
}

func (a legacyStateful) Play(_ *PlayContext, _ TruthfulState, deviator NodeID, dev Deviation) (Outcome, error) {
	return a.System.Run(deviator, dev)
}
