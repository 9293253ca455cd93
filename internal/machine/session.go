package machine

import (
	"time"

	"aapm/internal/phase"
	"aapm/internal/trace"
)

// Session is an in-progress run advanced one monitoring interval at a
// time: a one-lane view of the tick engine (BatchState), so a session
// steps exactly the code a fleet or batch run steps. It exists for
// co-simulation and observation — a driver can interleave steps with
// its own work, retarget the governor between intervals, or inspect
// LastRow as the run unfolds. Machine.Run is the convenience wrapper.
//
// Concurrency: a Session is not safe for concurrent use — one
// goroutine at a time may call Step (or any other method), though the
// goroutine may change between calls given a happens-before edge.
// Distinct sessions may be stepped concurrently: a session's mutable
// state is its own (RNG, actuator, thermal model, trace, hooks), and
// what it shares with its machine — the p-state table, sensor chain,
// power truth, config — is read-only after New. Governor retargeting
// (e.g. SetLimit) must happen between steps.
type Session struct {
	b *BatchState
}

// NewSession validates the workload and prepares an incremental run
// that records every interval's trace row. A batch that retains rows
// never coasts (see BatchState.coast), so a session's clock and
// totals are always current.
func (m *Machine) NewSession(w phase.Workload, g Governor) (*Session, error) {
	b, err := NewBatch([]BatchNode{{Machine: m, Workload: w, Governor: g}}, BatchOptions{RetainTraces: true})
	if err != nil {
		return nil, err
	}
	return &Session{b: b}, nil
}

// Subscribe adds h to the session's observer bus. Hooks fire in
// subscription order, after the run's own trace row is recorded.
// Subscribe before the first Step; hooks must not mutate the session.
func (s *Session) Subscribe(h Hook) { s.b.subscribe(0, h) }

// EnableStageTiming records per-stage wall-clock into every
// TickState.StageNanos the bus delivers and into the session total
// StageNanos reports. Off by default (each tick costs a handful of
// clock reads when on); purely observational, so virtual-time results
// are unaffected either way. Stages are timed only with the full
// event order, so enabling timing turns it on, as Subscribe does.
func (s *Session) EnableStageTiming() {
	s.b.timing = true
	s.b.full = true
}

// StageNanos returns the per-stage wall-clock summed over the ticks
// stepped so far, in StageNames order; all zero unless stage timing is
// enabled.
func (s *Session) StageNanos() [NumStages]int64 { return s.b.clock.total }

// Step advances the session by one monitoring interval and reports
// whether the workload completed. Once done, Step is a no-op that
// keeps reporting true.
func (s *Session) Step() (bool, error) {
	s.b.StepNode(0)
	return s.b.NodeDone(0), s.b.NodeErr(0)
}

// Done reports whether the workload has completed.
func (s *Session) Done() bool { return s.b.NodeDone(0) }

// Now returns the session's virtual time.
func (s *Session) Now() time.Duration { return s.b.now[0] }

// Governor returns the session's policy (nil for a pinned run).
func (s *Session) Governor() Governor { return s.b.Governor(0) }

// LastRow returns the most recent trace row, if any interval completed.
func (s *Session) LastRow() (trace.Row, bool) {
	rows := s.b.runs[0].Rows
	if len(rows) == 0 {
		return trace.Row{}, false
	}
	return rows[len(rows)-1], true
}

// Result finalizes and returns the recorded trace. It may be called
// once the session is done (or early, to inspect a truncated run);
// finalization is idempotent and fires each hook's OnDone exactly
// once.
func (s *Session) Result() *trace.Run { return s.b.Result(0) }

// Run executes w under governor g (nil g pins the start p-state) and
// returns the recorded trace.
func (m *Machine) Run(w phase.Workload, g Governor) (*trace.Run, error) {
	return m.RunWith(w, g)
}

// RunWith executes w under governor g with the given hooks subscribed
// to the run's tick bus, returning the recorded trace.
func (m *Machine) RunWith(w phase.Workload, g Governor, hooks ...Hook) (*trace.Run, error) {
	opts := BatchOptions{RetainTraces: true}
	if len(hooks) > 0 {
		opts.Hooks = func(int) []Hook { return hooks }
	}
	b, err := NewBatch([]BatchNode{{Machine: m, Workload: w, Governor: g}}, opts)
	if err != nil {
		return nil, err
	}
	if err := b.Run(); err != nil {
		return nil, err
	}
	return b.Result(0), nil
}
