package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"aapm/internal/machine"
	"aapm/internal/obs"
	"aapm/internal/trace"
)

// eventLog buffers a job's progress events (marshaled NDJSON lines)
// in a bounded ring and fans live events out to stream subscribers.
// A subscriber first receives the buffered history, then live lines;
// the channel closes when the job reaches a terminal state. A slow
// subscriber never stalls the simulation: lines that don't fit its
// channel are dropped (progress ticks are samples, not a transcript).
// Every emitted line carries the job/trace IDs and a monotonically
// increasing sequence number, so a resumed poller can detect ring
// drops (a gap in seq) instead of silently missing events.
type eventLog struct {
	mu     sync.Mutex
	job    string // stamped on every emitted line
	trace  string
	seq    uint64   // last sequence number issued (lines count from 1)
	ring   [][]byte // circular once full: oldest line at head
	head   int      // index of the oldest line when the ring is full
	cap    int
	closed bool
	subs   map[chan []byte]struct{}
}

func newEventLog(capacity int) *eventLog {
	return &eventLog{cap: capacity, subs: make(map[chan []byte]struct{})}
}

// newJobEventLog builds a job's event log with the identity stamped on
// every emitted line.
func newJobEventLog(capacity int, job, trace string) *eventLog {
	l := newEventLog(capacity)
	l.job, l.trace = job, trace
	return l
}

// emit stamps e with the log's identity and the next sequence number,
// marshals it, and publishes the line. All serve-side events flow
// through here.
func (l *eventLog) emit(e progressEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.seq++
	e.Seq = l.seq
	e.Job = l.job
	e.Trace = l.trace
	l.publishLocked(marshalEvent(e))
}

// publishLocked appends one marshaled line to the ring and offers it
// to every live subscriber; l.mu must be held and the log open. Once
// the ring is full each line overwrites the oldest slot and advances
// the head index — O(1), where the round-1 ring shifted the whole
// buffer with an O(capacity) copy on every line.
func (l *eventLog) publishLocked(line []byte) {
	if len(l.ring) < l.cap {
		l.ring = append(l.ring, line)
	} else {
		l.ring[l.head] = line
		l.head = (l.head + 1) % l.cap
	}
	for ch := range l.subs {
		select {
		case ch <- line:
		default: // slow consumer: drop rather than stall the run
		}
	}
}

// close ends the stream: subscriber channels close after draining.
func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for ch := range l.subs {
		close(ch)
	}
	l.subs = make(map[chan []byte]struct{})
}

// subscribe returns the buffered history and a live channel (already
// closed when the log is). cancel detaches the subscriber early.
func (l *eventLog) subscribe() (replay [][]byte, ch chan []byte, cancel func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	replay = make([][]byte, 0, len(l.ring))
	replay = append(replay, l.ring[l.head:]...)
	replay = append(replay, l.ring[:l.head]...)
	ch = make(chan []byte, 64)
	if l.closed {
		close(ch)
		return replay, ch, func() {}
	}
	l.subs[ch] = struct{}{}
	return replay, ch, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, live := l.subs[ch]; live {
			delete(l.subs, ch)
			close(ch)
		}
	}
}

// progressEvent is one NDJSON line of GET /api/jobs/{id}/events.
// Type is "state" for lifecycle changes (queued/running/…; Detail
// carries the terminal error, if any) and "tick" for sampled
// simulation progress. Seq increases by exactly 1 per line within one
// job attempt (a re-enqueue starts a fresh log at 1), Job/Trace
// identify the attempt — together they let a poller that reconnects
// mid-run detect how many lines the bounded ring dropped.
type progressEvent struct {
	Type    string  `json:"type"`
	Seq     uint64  `json:"seq,omitempty"`
	Job     string  `json:"job,omitempty"`
	Trace   string  `json:"trace,omitempty"`
	State   State   `json:"state,omitempty"`
	Detail  string  `json:"detail,omitempty"`
	Node    string  `json:"node,omitempty"`
	Tick    int     `json:"tick,omitempty"`
	TMs     float64 `json:"t_ms,omitempty"`
	FreqMHz int     `json:"freq_mhz,omitempty"`
	PowerW  float64 `json:"power_w,omitempty"`
	Phase   string  `json:"phase,omitempty"`
}

func marshalEvent(e progressEvent) []byte {
	b, err := json.Marshal(e)
	if err != nil {
		panic(fmt.Sprintf("serve: marshaling progress event: %v", err))
	}
	return b
}

// progressHook subscribes to a session's Hook bus and samples its
// ticks into the job's event log: every 'every'-th interval plus the
// final one, labeled with the node name for cluster jobs. Transitions
// and degradations additionally land in the job's flight recorder, so
// a postmortem dump shows what the machine was doing when the job
// died. Purely observational, so traces through the serve path stay
// byte-identical to direct runs.
type progressHook struct {
	machine.BaseHook
	log    *eventLog
	flight *obs.FlightRecorder // nil-safe; always-on postmortem ring
	node   string
	every  int
}

func newProgressHook(log *eventLog, flight *obs.FlightRecorder, node string, every int) *progressHook {
	if every < 1 {
		every = 1
	}
	return &progressHook{log: log, flight: flight, node: node, every: every}
}

// OnTick implements machine.Hook.
func (h *progressHook) OnTick(ts machine.TickState) {
	if !ts.Final && ts.Tick%h.every != 0 {
		return
	}
	p := ts.MeasuredPowerW
	if math.IsNaN(p) || math.IsInf(p, 0) {
		// A faulted sensor can drop a reading; JSON has no NaN.
		p = 0
	}
	h.log.emit(progressEvent{
		Type:    "tick",
		Node:    h.node,
		Tick:    ts.Tick,
		TMs:     float64(ts.Start+ts.Used) / float64(time.Millisecond),
		FreqMHz: ts.PState.FreqMHz,
		PowerW:  p,
		Phase:   ts.Phase,
	})
}

// OnTransition implements machine.Hook: p-state changes go to the
// flight recorder (not the event stream — at fleet scale they are far
// too dense to stream, but the bounded per-job ring absorbs them).
func (h *progressHook) OnTransition(tr machine.Transition) {
	h.flight.Note(obs.FlightEvent{
		Kind:   "transition",
		Name:   h.node,
		Detail: fmt.Sprintf("p%d->p%d ok=%t", tr.From, tr.To, tr.OK),
		VirtUS: float64(tr.T) / float64(time.Microsecond),
	})
}

// OnDegradation implements machine.Hook: fault and graceful-
// degradation events go to the flight recorder.
func (h *progressHook) OnDegradation(d trace.Degradation) {
	h.flight.Note(obs.FlightEvent{
		Kind:   "degradation",
		Name:   d.Source + "/" + d.Kind,
		Detail: d.Detail,
		VirtUS: float64(d.T) / float64(time.Microsecond),
	})
}

// OnDone implements machine.Hook.
func (h *progressHook) OnDone(*trace.Run) {}
