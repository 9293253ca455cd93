package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"aapm/internal/control"
	"aapm/internal/experiment"
	"aapm/internal/obs"
	"aapm/internal/pstate"
	"aapm/internal/spec"
	"aapm/internal/trace"
)

// JobSpec describes one simulation job. Exactly one of Workload and
// Experiment must be set: a workload job runs one suite workload under
// one governor (Nodes > 1 co-simulates a shared-budget cluster of
// copies instead), an experiment job runs one registry entry and
// captures its rendered output.
//
// A spec is content-addressed: Normalize fills defaults, Canonical
// renders the filled spec deterministically, and the job ID is a hash
// of those bytes — so two submissions of the same spec (same seed
// included) are the same job, and the result cache is keyed by ID.
type JobSpec struct {
	// Workload is a suite workload name (see spec.Names).
	Workload string `json:"workload,omitempty"`
	// Governor is a control.Parse spec, e.g. "pm:limit=14.5";
	// empty means "none" (pinned start state). Must be "none" for
	// cluster jobs, whose coordinator manages per-node PM governors.
	Governor string `json:"governor,omitempty"`
	// Seed drives measurement noise and workload jitter.
	Seed int64 `json:"seed"`
	// Iterations overrides the workload's repeat count; 0 keeps the
	// suite default.
	Iterations int `json:"iterations,omitempty"`
	// Nodes co-simulates a shared-budget cluster of this many copies
	// of the workload; 0/1 is a single machine.
	Nodes int `json:"nodes,omitempty"`
	// BudgetW is the cluster's global power cap; required when
	// Nodes > 1, must be 0 otherwise.
	BudgetW float64 `json:"budget_w,omitempty"`
	// Levels selects the hierarchical fleet coordinator for cluster
	// jobs: 0/1 is the flat coordinator, >1 an allocation tree of that
	// depth (cluster.FleetConfig.Levels). Only valid when Nodes > 1.
	Levels int `json:"levels,omitempty"`
	// Fanout is the allocation tree's children-per-group bound; 0
	// selects the fleet default (64). Only valid when Levels > 1.
	Fanout int `json:"fanout,omitempty"`
	// Chain selects the measurement chain: "ni" (default, the
	// simulated DAQ with gain error/noise/quantization) or "ideal".
	Chain string `json:"chain,omitempty"`
	// Thermal enables the die-temperature model.
	Thermal bool `json:"thermal,omitempty"`
	// MaxTicks bounds the run; 0 keeps the platform default.
	MaxTicks int `json:"max_ticks,omitempty"`
	// Experiment names a registry entry (see experiment.Registry) to
	// run instead of a workload; the result is the rendered text.
	Experiment string `json:"experiment,omitempty"`
	// Scale is the experiment job's workload ScaleDown divisor;
	// 0/1 is full length. Must be 0 for workload jobs.
	Scale int `json:"scale,omitempty"`
	// Tenant attributes the job to one client population for the
	// fair-share scheduler and the intake rate limiter; empty is the
	// shared default tenant (and, being omitempty, leaves untenanted
	// specs' canonical bytes — and therefore their cache keys — exactly
	// as they were before tenancy existed). The tenant participates in
	// the content address, so identical specs from two tenants are
	// distinct jobs with separately attributed results.
	Tenant string `json:"tenant,omitempty"`
}

// Normalize returns the spec with defaults made explicit, so that
// specs differing only in spelled-out defaults canonicalize — and
// therefore cache — identically.
func (js JobSpec) Normalize() JobSpec {
	if js.Experiment == "" {
		if js.Governor == "" {
			js.Governor = "none"
		}
		if js.Nodes <= 1 {
			js.Nodes = 1
		}
		if js.Chain == "" {
			js.Chain = ChainNI
		}
	}
	if js.Scale == 1 {
		js.Scale = 0
	}
	return js
}

// Measurement chain names accepted by JobSpec.Chain.
const (
	ChainNI    = "ni"
	ChainIdeal = "ideal"
)

// Validate checks a normalized spec. The governor spec is fully
// parsed, so an invalid job is rejected at submission, never queued.
func (js JobSpec) Validate() error {
	if err := validTenant(js.Tenant); err != nil {
		return err
	}
	if js.Experiment != "" {
		if js.Workload != "" || js.Governor != "" || js.Nodes != 0 ||
			js.BudgetW != 0 || js.Chain != "" || js.Thermal || js.Iterations != 0 ||
			js.MaxTicks != 0 || js.Levels != 0 || js.Fanout != 0 {
			return fmt.Errorf("serve: experiment job %q takes only seed and scale", js.Experiment)
		}
		if js.Scale < 0 {
			return fmt.Errorf("serve: negative scale")
		}
		for _, e := range experiment.Registry() {
			if e.Name == js.Experiment {
				return nil
			}
		}
		return fmt.Errorf("serve: unknown experiment %q", js.Experiment)
	}
	if js.Workload == "" {
		return fmt.Errorf("serve: missing workload (or experiment)")
	}
	if _, err := spec.ByName(js.Workload); err != nil {
		return err
	}
	if _, err := control.Parse(js.Governor, pstate.PentiumM755()); err != nil {
		return err
	}
	if js.Iterations < 0 {
		return fmt.Errorf("serve: negative iterations")
	}
	if js.MaxTicks < 0 {
		return fmt.Errorf("serve: negative max_ticks")
	}
	if js.MaxTicks > math.MaxInt32 {
		return fmt.Errorf("serve: max_ticks %d exceeds %d", js.MaxTicks, math.MaxInt32)
	}
	if js.Scale != 0 {
		return fmt.Errorf("serve: scale applies only to experiment jobs")
	}
	switch js.Chain {
	case ChainNI, ChainIdeal:
	default:
		return fmt.Errorf("serve: unknown chain %q (want %q or %q)", js.Chain, ChainNI, ChainIdeal)
	}
	if math.IsNaN(js.BudgetW) || math.IsInf(js.BudgetW, 0) || js.BudgetW < 0 {
		return fmt.Errorf("serve: bad budget_w")
	}
	if js.Nodes > 1 {
		if js.BudgetW <= 0 {
			return fmt.Errorf("serve: cluster job needs budget_w > 0")
		}
		if js.Governor != "none" {
			return fmt.Errorf("serve: cluster jobs manage per-node PM governors; omit governor")
		}
		if js.Thermal {
			return fmt.Errorf("serve: cluster jobs do not support the thermal model")
		}
		if js.MaxTicks != 0 {
			return fmt.Errorf("serve: max_ticks applies only to single-machine jobs")
		}
		if js.Levels < 0 || js.Levels > 16 {
			return fmt.Errorf("serve: levels %d out of range [0, 16]", js.Levels)
		}
		if js.Fanout != 0 && js.Levels <= 1 {
			return fmt.Errorf("serve: fanout applies only to hierarchical jobs (levels > 1)")
		}
		if js.Fanout < 0 || js.Fanout == 1 {
			return fmt.Errorf("serve: fanout must be 0 (default) or >= 2")
		}
	} else {
		if js.BudgetW != 0 {
			return fmt.Errorf("serve: budget_w applies only to cluster jobs (nodes > 1)")
		}
		if js.Levels != 0 || js.Fanout != 0 {
			return fmt.Errorf("serve: levels/fanout apply only to cluster jobs (nodes > 1)")
		}
	}
	return nil
}

// validTenant bounds tenant names: they become telemetry label values
// and queue keys, so keep them short and printable.
func validTenant(t string) error {
	if len(t) > 64 {
		return fmt.Errorf("serve: tenant name longer than 64 bytes")
	}
	for _, r := range t {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("serve: tenant name %q: only [A-Za-z0-9._-] allowed", t)
		}
	}
	return nil
}

// Canonical renders the normalized spec as deterministic bytes — the
// result cache's key material. Go's encoding/json marshals struct
// fields in declaration order, so equal specs yield equal bytes.
func (js JobSpec) Canonical() []byte {
	b, err := json.Marshal(js.Normalize())
	if err != nil {
		// A JobSpec holds only scalars; Marshal cannot fail.
		panic(fmt.Sprintf("serve: canonicalizing spec: %v", err))
	}
	return b
}

// ID returns the job's deterministic content-addressed identifier:
// "j" + the first 16 hex digits of SHA-256 over the canonical spec.
func (js JobSpec) ID() string {
	sum := sha256.Sum256(js.Canonical())
	return "j" + hex.EncodeToString(sum[:8])
}

// State is a job's lifecycle state.
//
// The state machine:
//
//	queued ──▶ running ──▶ done
//	   │          ├──────▶ failed     (run error or deadline)
//	   │          ├──────▶ canceled   (DELETE while running)
//	   │          └──────▶ aborted    (shutdown cut the run short)
//	   ├─────────────────▶ canceled   (DELETE while queued)
//	   └─────────────────▶ aborted    (shutdown drained the queue)
//
// done, failed, canceled and aborted are terminal. Resubmitting a
// spec whose job is queued, running or done joins the existing job
// (the idempotency hit counter increments); resubmitting one whose
// job ended failed/canceled/aborted re-enqueues that job.
type State string

// Job lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
	StateAborted  State = "aborted"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateAborted:
		return true
	}
	return false
}

// Job is one submitted simulation job and, once done, its cached
// result.
type Job struct {
	// ID is the deterministic content hash of Spec; Spec is the
	// normalized submission.
	ID   string
	Spec JobSpec

	mu        sync.Mutex
	state     State
	err       string // terminal error detail (failed/canceled/aborted)
	hits      uint64 // idempotency hits: submissions served by this job after the first
	cancelled bool   // DELETE was observed (distinguishes cancel from deadline)
	cancel    context.CancelFunc
	started   time.Time
	enqueued  time.Time     // last submission/re-enqueue, for the queue-wait span
	wall      time.Duration // run wall-clock once terminal

	// traceID identifies the current run attempt's trace (re-minted on
	// re-enqueue). The trace handle carries sampling and the span sink;
	// the flight recorder is this attempt's always-on postmortem ring,
	// with flightDump holding its marshaled dump once the attempt ends
	// badly (failed/canceled/aborted, or terminal during an SLO burn).
	traceID    string
	trace      *obs.Trace
	flight     *obs.FlightRecorder
	flightDump []byte

	result []byte     // marshaled Result, stored once at completion — cache hits are byte-identical
	run    *trace.Run // single-machine run, for CSV rendering
	events *eventLog
}

// Status is the JSON shape of GET /api/jobs/{id}.
type Status struct {
	ID        string  `json:"id"`
	State     State   `json:"state"`
	Spec      JobSpec `json:"spec"`
	TraceID   string  `json:"trace_id,omitempty"`
	Error     string  `json:"error,omitempty"`
	CacheHits uint64  `json:"cache_hits"`
	WallMs    float64 `json:"wall_ms,omitempty"`
}

// status snapshots the job under its lock.
func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.ID,
		State:     j.state,
		Spec:      j.Spec,
		TraceID:   j.traceID,
		Error:     j.err,
		CacheHits: j.hits,
	}
	if j.wall > 0 {
		st.WallMs = float64(j.wall) / float64(time.Millisecond)
	}
	return st
}

// TraceID returns the job's current trace ID ("" before first
// admission).
func (j *Job) TraceID() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traceID
}

// announceLocked records a lifecycle change on both postmortem
// surfaces: the NDJSON event stream and the flight recorder. Callers
// hold j.mu.
func (j *Job) announceLocked(st State, detail string) {
	j.events.emit(progressEvent{Type: "state", State: st, Detail: detail})
	j.flight.Note(obs.FlightEvent{Kind: "state", Name: string(st), Detail: detail})
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// NodeResult summarizes one cluster node's run inside a Result.
type NodeResult struct {
	Name        string  `json:"name"`
	DurationSec float64 `json:"duration_sec"`
	EnergyJ     float64 `json:"energy_j"`
	AvgPowerW   float64 `json:"avg_power_w"`
	Transitions int     `json:"transitions"`
}

// Result is the JSON shape of GET /api/jobs/{id}/result. Workload
// jobs fill the run summary (plus Nodes and the cluster aggregates
// for Nodes > 1); experiment jobs fill Output with the rendered text.
type Result struct {
	ID          string  `json:"id"`
	Workload    string  `json:"workload,omitempty"`
	Policy      string  `json:"policy,omitempty"`
	DurationSec float64 `json:"duration_sec,omitempty"`
	EnergyJ     float64 `json:"energy_j,omitempty"`
	AvgPowerW   float64 `json:"avg_power_w,omitempty"`
	Transitions int     `json:"transitions,omitempty"`
	Ticks       int     `json:"ticks,omitempty"`

	Nodes          []NodeResult `json:"nodes,omitempty"`
	MakespanSec    float64      `json:"makespan_sec,omitempty"`
	MachineSeconds float64      `json:"machine_seconds,omitempty"`
	PeakTotalW     float64      `json:"peak_total_w,omitempty"`

	Experiment string `json:"experiment,omitempty"`
	Output     string `json:"output,omitempty"`
}
