// Package machine assembles the simulated Pentium M platform: the
// p-state actuator, the PMU, the ground-truth power model and the
// measurement chain, driven by a virtual 10 ms sampling clock.
//
// A Machine executes a phase-trace workload (package phase) under a
// Governor — the power-management policy. One tick engine (batch.go,
// batch_step.go) runs every interval: execute synthesizes the
// interval's counter activity from the active phase and p-state,
// measure computes true power and the sensed sample, observe exposes
// the PMU/thermal view, govern asks the policy for the next p-state
// (and logs the degradations it notes), and actuate applies it. A Session is a one-lane view of that engine;
// fleets and batches step many lanes at once. The engine totals each
// run's counters (ticks, virtual, stall and busy time, energy,
// transitions, degradations) into its trace.Run; live consumers —
// telemetry, tracing, progress — subscribe to the per-tick Hook bus
// (tick.go) rather than living inline in the loop. Everything runs on
// virtual time with a seeded RNG, so runs are deterministic and free
// of host GC/runtime jitter.
package machine

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"aapm/internal/counters"
	"aapm/internal/faults"
	"aapm/internal/phase"
	"aapm/internal/power"
	"aapm/internal/pstate"
	"aapm/internal/sensor"
	"aapm/internal/thermal"
	"aapm/internal/trace"
)

// TickInfo is what a governor observes each monitoring interval —
// exactly what the paper's user-level prototype sees: the elapsed
// counters for the interval, the active p-state, and (for policies
// that use measured-power feedback, an extension the paper proposes)
// the sensed power sample.
type TickInfo struct {
	// Now is the virtual time at the end of the interval; Interval is
	// its length.
	Now      time.Duration
	Interval time.Duration
	// Sample holds the interval's counter deltas.
	Sample counters.Sample
	// PState is the state the interval executed at; PStateIndex its
	// table index.
	PState      pstate.PState
	PStateIndex int
	// Table is the platform's p-state table.
	Table *pstate.Table
	// MeasuredPowerW is the sensed average power for the interval.
	MeasuredPowerW float64
	// TempC is the digital thermal sensor reading at interval end;
	// 0 when the platform has no thermal model configured.
	TempC float64
	// Duty is the clock-modulation duty cycle the interval ran at.
	Duty float64
}

// Governor decides the p-state for the next interval. Implementations
// live in package control.
type Governor interface {
	// Name labels the policy in traces.
	Name() string
	// Tick returns the desired p-state index for the next interval and
	// the degradations the decision noted (nil for none), which the
	// engine stamps with virtual time and logs in the run. info is the
	// engine's own record of the interval: Tick must neither modify it
	// nor retain it past the call.
	Tick(info *TickInfo) (want int, degr []trace.Degradation)
}

// InitialStater is optionally implemented by governors that want a
// specific starting p-state (e.g. a static-clocking baseline); it
// overrides the machine's configured start.
type InitialStater interface {
	// InitialIndex returns the starting p-state index given the
	// machine's default.
	InitialIndex(defaultIndex int) int
}

// Throttler is optionally implemented by governors that additionally
// drive ACPI T-state style clock modulation. Duty is queried after
// each Tick and applies to the next interval: the core receives
// duty*f cycles per second; the stopped fraction draws gated idle
// power. Values outside (0,1] clamp.
type Throttler interface {
	Duty() float64
}

// Config describes a platform instance.
type Config struct {
	// Table is the p-state table; nil selects the Pentium M 755 table.
	Table *pstate.Table
	// Truth is the ground-truth power model; nil selects the built-in
	// Pentium M truth (requires the default table).
	Truth *power.GroundTruth
	// Chain is the power measurement chain; the zero value is ideal.
	Chain sensor.Chain
	// SamplePeriod is the monitoring interval; 0 selects 10 ms.
	SamplePeriod time.Duration
	// TransitionLatency is the DVFS switch cost; negative selects the
	// default, 0 is instantaneous.
	TransitionLatency time.Duration
	// Thermal, when non-nil, enables the die-temperature model; the
	// sensor reading is exposed to governors via TickInfo.TempC.
	Thermal *thermal.Config
	// Faults, when non-nil and non-zero, injects sensor, counter and
	// actuator faults into every run (package faults). Faults corrupt
	// only what policies observe — measured power, the PMU sample the
	// governor sees, and transition outcomes — never the ground-truth
	// physics, so adherence evaluation against true power stays exact.
	Faults *faults.Plan
	// Seed drives measurement noise and workload jitter. Runs of the
	// same workload on the same seed observe identical jitter
	// regardless of policy, so policy comparisons are paired.
	Seed int64
	// StartFreqMHz is the initial p-state frequency; 0 selects the
	// highest state (matching how the paper's runs begin at full
	// speed). Any other value must name a table state.
	StartFreqMHz int
	// MaxTicks bounds a run; 0 selects a generous default. It may not
	// exceed math.MaxInt32.
	MaxTicks int
}

// DefaultSamplePeriod matches the paper's 10 ms monitoring interval.
const DefaultSamplePeriod = 10 * time.Millisecond

const defaultMaxTicks = 4_000_000

// Machine is a simulated platform instance.
type Machine struct {
	table    *pstate.Table
	truth    *power.GroundTruth
	chain    sensor.Chain
	period   time.Duration
	translat time.Duration
	thermal  *thermal.Config
	faults   *faults.Plan
	seed     int64
	startIdx int
	maxTicks int
}

// New validates cfg and builds a Machine.
func New(cfg Config) (*Machine, error) {
	var (
		t     *pstate.Table
		truth *power.GroundTruth
	)
	switch {
	case cfg.Truth != nil:
		truth = cfg.Truth
		t = truth.Table()
		if cfg.Table != nil && cfg.Table != t {
			return nil, fmt.Errorf("machine: Table differs from Truth's table")
		}
	case cfg.Table != nil:
		t = cfg.Table
		var err error
		truth, err = power.NewGroundTruth(t)
		if err != nil {
			return nil, err
		}
	default:
		t = pstate.PentiumM755()
		truth = power.PentiumM755Truth()
	}
	if err := cfg.Chain.Validate(); err != nil {
		return nil, err
	}
	period := cfg.SamplePeriod
	if period == 0 {
		period = DefaultSamplePeriod
	}
	if period < 0 {
		return nil, fmt.Errorf("machine: negative sample period")
	}
	translat := cfg.TransitionLatency
	if translat < 0 {
		translat = pstate.DefaultTransitionLatency
	}
	start := t.Len() - 1
	if cfg.StartFreqMHz != 0 {
		start = t.IndexOf(cfg.StartFreqMHz)
		if start < 0 {
			return nil, fmt.Errorf("machine: no p-state with frequency %d MHz", cfg.StartFreqMHz)
		}
	}
	maxTicks := cfg.MaxTicks
	if maxTicks <= 0 {
		maxTicks = defaultMaxTicks
	}
	if maxTicks > math.MaxInt32 {
		// A batch counts each node's ticks in 32 bits.
		return nil, fmt.Errorf("machine: MaxTicks %d exceeds %d", maxTicks, math.MaxInt32)
	}
	if cfg.Thermal != nil {
		if err := cfg.Thermal.Validate(); err != nil {
			return nil, err
		}
	}
	var plan *faults.Plan
	if cfg.Faults != nil && !cfg.Faults.Zero() {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
		p := *cfg.Faults
		plan = &p
	}
	return &Machine{
		table:    t,
		truth:    truth,
		chain:    cfg.Chain,
		period:   period,
		translat: translat,
		thermal:  cfg.Thermal,
		faults:   plan,
		seed:     cfg.Seed,
		startIdx: start,
		maxTicks: maxTicks,
	}, nil
}

// Table returns the platform's p-state table.
func (m *Machine) Table() *pstate.Table { return m.table }

// Truth returns the platform's ground-truth power model. Policies must
// not use it (they only get TickInfo); experiments use it to evaluate
// adherence.
func (m *Machine) Truth() *power.GroundTruth { return m.truth }

// SamplePeriod returns the monitoring interval.
func (m *Machine) SamplePeriod() time.Duration { return m.period }

// setActivityP is addActivityP for a sample known to be all-zero (the
// first busy segment after the per-tick reset): adding to zero counts
// is setting them, so the read-modify-write pairs collapse to stores.
// Bit-identical results.
func setActivityP(s *counters.Sample, b *phase.Behavior, jitter, cycles float64) {
	s.SetCount(counters.Cycles, uint64(cycles+0.5))
	s.SetCount(counters.InstDecoded, uint64(b.DPC*jitter*cycles+0.5))
	s.SetCount(counters.InstRetired, uint64(b.IPC*jitter*cycles+0.5))
	s.SetCount(counters.DCUMissOutstanding, uint64(b.DCU*cycles+0.5))
	s.SetCount(counters.L2Requests, uint64(b.L2PC*jitter*cycles+0.5))
	s.SetCount(counters.MemRequests, uint64(b.MemPC*jitter*cycles+0.5))
	s.SetCount(counters.ResourceStalls, uint64(b.StallPC*cycles+0.5))
}

// addActivityP accumulates cycles of execution of behaviour b (with
// intensity jitter applied to the instruction-proportional rates) into
// the interval sample.
func addActivityP(s *counters.Sample, b *phase.Behavior, jitter, cycles float64) {
	// Unrolled (no closure) so the sample stays in registers on the
	// hot path; each count is rate*cycles+0.5 truncated, with the rate
	// grouped as b.X*jitter, then *cycles.
	s.SetCount(counters.Cycles, s.Count(counters.Cycles)+uint64(cycles+0.5))
	s.SetCount(counters.InstDecoded, s.Count(counters.InstDecoded)+uint64(b.DPC*jitter*cycles+0.5))
	s.SetCount(counters.InstRetired, s.Count(counters.InstRetired)+uint64(b.IPC*jitter*cycles+0.5))
	s.SetCount(counters.DCUMissOutstanding, s.Count(counters.DCUMissOutstanding)+uint64(b.DCU*cycles+0.5))
	s.SetCount(counters.L2Requests, s.Count(counters.L2Requests)+uint64(b.L2PC*jitter*cycles+0.5))
	s.SetCount(counters.MemRequests, s.Count(counters.MemRequests)+uint64(b.MemPC*jitter*cycles+0.5))
	s.SetCount(counters.ResourceStalls, s.Count(counters.ResourceStalls)+uint64(b.StallPC*cycles+0.5))
}

// idlePowerFraction is the fraction of the p-state's base power drawn
// while the core is halted (deep clock gating).
const idlePowerFraction = 0.5

// intervalPower returns the interval-average true power: active power
// from counter rates over the busy portion, gated idle power over the
// rest.
func intervalPower(truth *power.GroundTruth, idx int, s *counters.Sample, busy, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	c := truth.Coefficients(idx)
	idleW := c.Base * idlePowerFraction
	if busy <= 0 {
		return idleW
	}
	dpc, l2pc, mempc, dcu := s.PowerRates()
	activeW := truth.PowerFromRates(idx, dpc, l2pc, mempc, dcu)
	if busy == total {
		// bf below would be exactly 1 (x/x for finite nonzero x), making
		// the blend activeW*1 + idleW*0 — bit-identical to activeW for
		// any finite positive activeW, so the common fully-busy interval
		// skips the divisions.
		return activeW
	}
	bf := busy.Seconds() / total.Seconds()
	if bf > 1 {
		bf = 1
	}
	return activeW*bf + idleW*(1-bf)
}

func hashName(name string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return h.Sum32()
}
