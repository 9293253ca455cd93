package machine

import (
	"time"

	"aapm/internal/counters"
	"aapm/internal/pstate"
	"aapm/internal/trace"
)

// The tick engine runs one monitoring interval as five named stages,
// mirroring the paper's Monitor → Estimate/Predict → Control loop
// (§III) plus the physics that drives it:
//
//	execute  — phase advance, stall accounting, instruction/cycle work
//	measure  — ground-truth power → sensor chain → fault corruption
//	observe  — what the monitoring layer exposes (PMU sample, thermal)
//	govern   — the policy tick and its degradation drain
//	actuate  — p-state transition, T-state duty, stall charging
//
// Stage indices into TickState.StageNanos and StageNames.
const (
	StageExecute = iota
	StageMeasure
	StageObserve
	StageGovern
	StageActuate

	// NumStages is the number of engine stages per tick.
	NumStages
)

// StageNames labels the stages in StageNanos order.
var StageNames = [NumStages]string{"execute", "measure", "observe", "govern", "actuate"}

// TickState is the record of one monitoring interval that a batch
// running the full event order assembles once the interval is
// recorded; hooks receive it once per interval.
type TickState struct {
	// Tick is the 1-based interval ordinal within the run.
	Tick int
	// Start is the virtual time at interval start; Interval the
	// configured monitoring period; Used the portion actually simulated
	// (the final interval may end early when the workload completes).
	Start    time.Duration
	Interval time.Duration
	Used     time.Duration

	// PState is the state the interval executed at; PStateIndex its
	// table index. Transitions apply to the *next* interval.
	PState      pstate.PState
	PStateIndex int
	// Duty is the clock-modulation duty cycle the interval ran at.
	Duty float64
	// Jitter is the interval's workload-intensity multiplier.
	Jitter float64

	// Stall is halted time charged this interval (pending transition
	// latency plus the stopped fraction of a modulated clock); Busy is
	// compute time; Instructions the work retired; Phase the workload
	// phase active at interval end.
	Stall        time.Duration
	Busy         time.Duration
	Instructions float64
	Phase        string

	// Sample is the true PMU activity; Observed is what the governor
	// sees (identical unless a fault plan corrupts it).
	Sample   counters.Sample
	Observed counters.Sample

	// TruePowerW is ground truth; MeasuredPowerW what the sensing
	// chain (and fault injector) reported; TempC the thermal sensor
	// reading at interval end.
	TruePowerW     float64
	MeasuredPowerW float64
	TempC          float64

	// WantIndex is the p-state the governor requested for the next
	// interval (== PStateIndex when unchanged or ungoverned); NextDuty
	// the duty cycle the next interval will run at.
	WantIndex int
	NextDuty  float64

	// StageNanos holds per-stage wall-clock when the session has
	// stage timing enabled (Session.EnableStageTiming); all zero
	// otherwise; Session.StageNanos sums it over the run. Purely
	// observational — never part of virtual time.
	StageNanos [NumStages]int64

	// Final marks the run's last recorded interval.
	Final bool
}

// Transition describes one p-state change attempt the actuate stage
// resolved.
type Transition struct {
	// T is the virtual time of the decision.
	T time.Duration
	// From and To are table indices. On a failed attempt the actuator
	// stays at From.
	From, To int
	// OK reports whether the transition took effect (false when a
	// faulted actuator abandoned it).
	OK bool
	// Stall is the latency charged against upcoming intervals.
	Stall time.Duration
}

// Hook observes a run's ticks. Implementations subscribe via
// Session.Subscribe, Machine.RunWith or BatchOptions.Hooks and receive
// events in subscription order, after the run's own trace row and
// degradation log entry are recorded; embed BaseHook to implement only
// the events of interest. Hooks must not mutate the run they observe.
// Any hook turns on its batch's full event order.
type Hook interface {
	// OnTick fires once per recorded interval, after every stage ran.
	OnTick(TickState)
	// OnTransition fires when the actuate stage resolves a p-state
	// change attempt (successful or abandoned).
	OnTransition(Transition)
	// OnDegradation fires for every degradation event — injected
	// faults and governor graceful-degradation responses — in the
	// order the stages emit them.
	OnDegradation(trace.Degradation)
	// OnDone fires once when the session's result is finalized.
	OnDone(*trace.Run)
}

// BaseHook is a no-op Hook for embedding.
type BaseHook struct{}

// OnTick implements Hook.
func (BaseHook) OnTick(TickState) {}

// OnTransition implements Hook.
func (BaseHook) OnTransition(Transition) {}

// OnDegradation implements Hook.
func (BaseHook) OnDegradation(trace.Degradation) {}

// OnDone implements Hook.
func (BaseHook) OnDone(*trace.Run) {}

// stageClock times one lane's stages: the current tick's split, which
// the TickState record carries, and the running total
// Session.StageNanos reports.
type stageClock struct {
	last  time.Time
	tick  [NumStages]int64
	total [NumStages]int64
}

// start begins a tick: every stage reads zero until it is marked.
func (c *stageClock) start() {
	c.tick = [NumStages]int64{}
	c.last = time.Now()
}

// mark closes stage at the current wall-clock time.
func (c *stageClock) mark(stage int) {
	now := time.Now()
	n := now.Sub(c.last).Nanoseconds()
	c.tick[stage] = n
	c.total[stage] += n
	c.last = now
}
