package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// span is one timed call into a layer: its name, the detail that
// distinguishes calls of the same name (a deviation, a scenario), its
// start and end in nanoseconds since the tracer started, and the span
// that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer is tracing off: every method is a no-op.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span identifier, so children can name a parent that
// has not ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent int64, name, detail string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Detail: detail,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns every span called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write saves every span as JSON to path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedSystem decorates a core.StatefulSystem: it times Snapshot and
// every Play as spans under one parent, and keeps the inner system's
// Bounder so a pruned check prunes exactly the same plays.
type tracedSystem struct {
	core.StatefulSystem
	tr     *tracer
	parent int64
	prefix string // span-name prefix, e.g. "rational.plain"
}

// tracedEpoched adds the epoch-pinned play of a
// core.StatefulEpochedSystem to tracedSystem.
type tracedEpoched struct {
	*tracedSystem
	ep core.StatefulEpochedSystem
}

// traced wraps sys so its snapshot and plays are recorded as spans
// named prefix+".snapshot" and prefix+".play" under parent. The
// wrapper exposes the same capabilities the engine looks for: the
// epoched interface when sys has it, and the profit bound always (it
// declines to bound when sys does not implement core.Bounder, exactly
// as core.SelfBound would).
func traced(sys core.System, tr *tracer, parent int64, prefix string) core.System {
	ts := &tracedSystem{StatefulSystem: core.AsStateful(sys), tr: tr, parent: parent, prefix: prefix}
	if ep, ok := sys.(core.StatefulEpochedSystem); ok {
		return &tracedEpoched{tracedSystem: ts, ep: ep}
	}
	return ts
}

func (s *tracedSystem) Snapshot() (core.TruthfulState, error) {
	start := time.Now()
	st, err := s.StatefulSystem.Snapshot()
	s.tr.add(s.tr.id(), s.parent, s.prefix+".snapshot", "", start, time.Now())
	return st, err
}

func (s *tracedSystem) Play(ctx *core.PlayContext, st core.TruthfulState, deviator core.NodeID, dev core.Deviation) (core.Outcome, error) {
	start := time.Now()
	out, err := s.StatefulSystem.Play(ctx, st, deviator, dev)
	s.tr.add(s.tr.id(), s.parent, s.prefix+".play", dev.Name(), start, time.Now())
	return out, err
}

func (s *tracedSystem) ProfitUpperBound(deviator core.NodeID, dev core.Deviation, epoch int) (int64, bool) {
	if b, ok := s.StatefulSystem.(core.Bounder); ok {
		return b.ProfitUpperBound(deviator, dev, epoch)
	}
	return 0, false
}

func (s *tracedEpoched) NumEpochs() int { return s.ep.NumEpochs() }

func (s *tracedEpoched) RunEpoch(deviator core.NodeID, dev core.Deviation, epoch int) (core.Outcome, error) {
	return s.ep.RunEpoch(deviator, dev, epoch)
}

func (s *tracedEpoched) EpochsOf(deviator core.NodeID, dev core.Deviation) []int {
	return s.ep.EpochsOf(deviator, dev)
}

func (s *tracedEpoched) PlayEpoch(ctx *core.PlayContext, st core.TruthfulState, deviator core.NodeID, dev core.Deviation, epoch int) (core.Outcome, error) {
	start := time.Now()
	out, err := s.ep.PlayEpoch(ctx, st, deviator, dev, epoch)
	s.tr.add(s.tr.id(), s.parent, s.prefix+".play", dev.Name(), start, time.Now())
	return out, err
}
