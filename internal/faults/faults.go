// Package faults is a deterministic, seed-driven fault-injection
// subsystem for the simulated platform. It models the ways a real
// sensing and actuation chain misbehaves in production — documented
// for counter-based power monitoring (dropped samples, counter
// overflow/saturation) and energy-register readers (stale and missing
// reads) — so the power-management policies can be evaluated under
// adversity rather than only under Gaussian noise.
//
// Three fault classes compose into a Plan:
//
//   - SensorPlan corrupts the measured-power path after the analog
//     chain (sensor.Chain): dropout episodes (the DAQ returns no
//     sample, surfaced as NaN), stuck-at episodes (the reading
//     freezes), single-sample spikes, and slow multiplicative gain
//     drift.
//   - CounterPlan corrupts the PMU sample the governor observes
//     (counters.Sample): missed reads (an all-zero delta, as when the
//     driver's snapshot fails to update), 32-bit overflow wrap of one
//     event, and saturation of all events at a ceiling.
//   - ActuatorPlan corrupts p-state transitions (the tick engine's
//     actuation lanes in package machine): transition requests fail
//     with a probability and are retried a bounded number of times,
//     each attempt costing (jittered) stall time.
//
// An Injector instantiates a Plan for one run. It draws environment
// faults (sensor + counters) from one RNG stream with a fixed number
// of draws per interval, and actuation faults from a second stream —
// so two policies running on the same seed observe the *same* sensor
// and counter fault timeline even when their p-state decisions
// diverge, keeping policy comparisons paired.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"aapm/internal/counters"
)

// SensorPlan describes faults on the measured-power path.
type SensorPlan struct {
	// DropoutProb is the per-interval probability of entering a
	// dropout episode, during which the sensed value is NaN (the
	// acquisition returned no sample).
	DropoutProb float64
	// DropoutTicks is the episode length in intervals; 0 selects 5.
	DropoutTicks int
	// StuckProb is the per-interval probability the reading freezes at
	// its previous value for StuckTicks intervals.
	StuckProb float64
	// StuckTicks is the stuck episode length; 0 selects 10.
	StuckTicks int
	// SpikeProb is the per-interval probability of a single-sample
	// additive spike of up to ±SpikeMagW.
	SpikeProb float64
	// SpikeMagW is the spike magnitude bound; 0 selects 10 W.
	SpikeMagW float64
	// GainDriftPerTick is a multiplicative calibration drift applied
	// every interval (e.g. 1e-5 reads 1% high after 1000 intervals).
	GainDriftPerTick float64
}

// CounterPlan describes faults on the PMU sample path.
type CounterPlan struct {
	// MissProb is the per-interval probability of a missed read: the
	// observed sample is all-zero, indistinguishable from an idle
	// interval.
	MissProb float64
	// WrapProb is the per-interval probability that one event's count
	// wraps as a 32-bit counter would, yielding a garbage-huge delta.
	WrapProb float64
	// SaturateProb is the per-interval probability that every event
	// count clamps at SaturateAt.
	SaturateProb float64
	// SaturateAt is the saturation ceiling; 0 selects 1<<24.
	SaturateAt uint64
}

// ActuatorPlan describes faults on the p-state transition path.
type ActuatorPlan struct {
	// FailProb is the probability that a transition attempt fails.
	FailProb float64
	// Retries is how many extra attempts follow a failure before the
	// transition is abandoned (the actuator stays at its current
	// state). Negative disables retries.
	Retries int
	// JitterStd is the lognormal sigma of the per-attempt latency
	// multiplier (0 = exact nominal latency).
	JitterStd float64
}

// Plan composes the three fault classes. The zero value injects
// nothing.
type Plan struct {
	Sensor   SensorPlan
	Counter  CounterPlan
	Actuator ActuatorPlan
	// Seed is folded into the machine seed so distinct plans on the
	// same platform draw distinct fault timelines.
	Seed int64
}

// Validate reports the first implausible plan parameter.
func (p Plan) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"sensor dropout", p.Sensor.DropoutProb},
		{"sensor stuck", p.Sensor.StuckProb},
		{"sensor spike", p.Sensor.SpikeProb},
		{"counter miss", p.Counter.MissProb},
		{"counter wrap", p.Counter.WrapProb},
		{"counter saturate", p.Counter.SaturateProb},
		{"actuator fail", p.Actuator.FailProb},
	}
	for _, pr := range probs {
		if math.IsNaN(pr.v) || pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("faults: %s probability %g outside [0,1]", pr.name, pr.v)
		}
	}
	switch {
	case p.Sensor.DropoutTicks < 0 || p.Sensor.StuckTicks < 0:
		return fmt.Errorf("faults: negative episode length")
	case p.Sensor.SpikeMagW < 0 || math.IsNaN(p.Sensor.SpikeMagW):
		return fmt.Errorf("faults: negative spike magnitude")
	case math.IsNaN(p.Sensor.GainDriftPerTick) || math.Abs(p.Sensor.GainDriftPerTick) > 0.01:
		return fmt.Errorf("faults: gain drift %g per tick outside [-0.01,0.01]", p.Sensor.GainDriftPerTick)
	case p.Actuator.JitterStd < 0 || math.IsNaN(p.Actuator.JitterStd) || p.Actuator.JitterStd > 4:
		return fmt.Errorf("faults: actuator jitter sigma %g outside [0,4]", p.Actuator.JitterStd)
	case p.Actuator.Retries > 16:
		return fmt.Errorf("faults: %d retries exceeds 16", p.Actuator.Retries)
	}
	return nil
}

// Zero reports whether the plan injects nothing (an Injector is
// unnecessary).
func (p Plan) Zero() bool {
	return p.Sensor == SensorPlan{} && p.Counter == CounterPlan{} && p.Actuator == ActuatorPlan{}
}

// Preset returns a balanced plan exercising every fault class, scaled
// by a base per-interval rate (e.g. 0.05 = 5%).
func Preset(rate float64) Plan {
	return Plan{
		Sensor: SensorPlan{
			DropoutProb: rate, DropoutTicks: 5,
			StuckProb: rate / 2, StuckTicks: 10,
			SpikeProb: rate, SpikeMagW: 8,
		},
		Counter: CounterPlan{
			MissProb: rate, WrapProb: rate / 4, SaturateProb: rate / 4,
		},
		Actuator: ActuatorPlan{FailProb: rate, Retries: 2, JitterStd: 0.5},
	}
}

// Event is one injected fault occurrence.
type Event struct {
	// Tick is the injector's interval counter when the fault fired.
	Tick int
	// Source is "sensor", "counters" or "actuator".
	Source string
	// Kind names the fault: dropout, stuck, spike, miss, wrap,
	// saturate, transition-fail, transition-retry.
	Kind string
	// Detail is an optional human-readable annotation.
	Detail string
}

// Injector applies one Plan to one run. Methods are called by the
// machine session in a fixed per-interval order: BeginTick, Counters,
// Sense, then (only when the governor requests a transition)
// Transition.
type Injector struct {
	plan Plan
	// envRng drives sensor+counter faults with a constant number of
	// draws per interval, so the environment fault timeline is
	// identical across policies at the same seed. actRng drives
	// transition faults, which are inherently policy-dependent.
	envRng *rand.Rand
	actRng *rand.Rand

	tick      int
	dropLeft  int
	stuckLeft int
	stuckW    float64
	haveStuck bool
	gain      float64

	events []Event
}

// NewInjector validates the plan and builds an injector whose fault
// timeline is a pure function of (plan, seed).
func NewInjector(plan Plan, seed int64) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	seed ^= plan.Seed
	return &Injector{
		plan:   plan,
		envRng: rand.New(rand.NewSource(seed ^ 0x5eed_fa01)),
		actRng: rand.New(rand.NewSource(seed ^ 0x0ac7_0a70)),
		gain:   1,
	}, nil
}

// BeginTick advances the interval counter. Call once per monitoring
// interval before Counters/Sense.
func (in *Injector) BeginTick() { in.tick++ }

func (in *Injector) log(source, kind, detail string) {
	in.events = append(in.events, Event{Tick: in.tick, Source: source, Kind: kind, Detail: detail})
}

// Counters returns the governor-visible PMU sample for the interval,
// possibly corrupted. It always consumes exactly four RNG draws so the
// environment stream stays aligned across policies.
func (in *Injector) Counters(truth counters.Sample) counters.Sample {
	p := in.plan.Counter
	dMiss := in.envRng.Float64()
	dWrap := in.envRng.Float64()
	dSat := in.envRng.Float64()
	dEvent := in.envRng.Float64()

	if p.MissProb > 0 && dMiss < p.MissProb {
		in.log("counters", "miss", "snapshot not updated; all-zero sample")
		return counters.Sample{}
	}
	out := truth
	if p.SaturateProb > 0 && dSat < p.SaturateProb {
		at := p.SaturateAt
		if at == 0 {
			at = 1 << 24
		}
		for e := counters.Event(0); int(e) < counters.NumEvents; e++ {
			if out.Count(e) > at {
				out.SetCount(e, at)
			}
		}
		in.log("counters", "saturate", fmt.Sprintf("counts clamped at %d", at))
	}
	if p.WrapProb > 0 && dWrap < p.WrapProb {
		e := counters.Event(int(dEvent * float64(counters.NumEvents)))
		if int(e) >= counters.NumEvents {
			e = counters.Event(counters.NumEvents - 1)
		}
		// A 32-bit counter wrapped between reads: the driver's unsigned
		// delta is the wrapped residue, garbage relative to the true
		// interval count.
		wrapped := (1 << 32) - (out.Count(e) & 0xffff_ffff)
		out.SetCount(e, wrapped)
		in.log("counters", "wrap", fmt.Sprintf("%v delta wrapped to %d", e, wrapped))
	}
	return out
}

// Sense returns the acquired power sample for the interval, possibly
// corrupted; NaN means the acquisition dropped the sample. It always
// consumes exactly four RNG draws.
func (in *Injector) Sense(trueMeasuredW float64) float64 {
	p := in.plan.Sensor
	dDrop := in.envRng.Float64()
	dStuck := in.envRng.Float64()
	dSpike := in.envRng.Float64()
	dMag := in.envRng.Float64()

	in.gain *= 1 + p.GainDriftPerTick
	w := trueMeasuredW * in.gain

	switch {
	case in.dropLeft > 0:
		in.dropLeft--
		return math.NaN()
	case p.DropoutProb > 0 && dDrop < p.DropoutProb:
		ticks := p.DropoutTicks
		if ticks == 0 {
			ticks = 5
		}
		in.dropLeft = ticks - 1
		in.log("sensor", "dropout", fmt.Sprintf("%d-interval acquisition dropout", ticks))
		return math.NaN()
	case in.stuckLeft > 0:
		in.stuckLeft--
		return in.stuckW
	case p.StuckProb > 0 && dStuck < p.StuckProb && in.haveStuck:
		ticks := p.StuckTicks
		if ticks == 0 {
			ticks = 10
		}
		in.stuckLeft = ticks - 1
		in.log("sensor", "stuck", fmt.Sprintf("reading frozen at %.2f W for %d intervals", in.stuckW, ticks))
		return in.stuckW
	}
	if p.SpikeProb > 0 && dSpike < p.SpikeProb {
		mag := p.SpikeMagW
		if mag == 0 {
			mag = 10
		}
		w += (2*dMag - 1) * mag
		if w < 0 {
			w = 0
		}
		in.log("sensor", "spike", "")
	}
	in.stuckW, in.haveStuck = w, true
	return w
}

// Transition resolves one requested p-state transition: ok reports
// whether it eventually succeeded, and extra is stall time beyond the
// nominal latency of a clean transition (retry costs and jitter; on
// failure it is the full cost of all failed attempts).
func (in *Injector) Transition(nominal time.Duration) (ok bool, extra time.Duration) {
	p := in.plan.Actuator
	if p.FailProb <= 0 && p.JitterStd <= 0 {
		return true, 0
	}
	attempt := func() time.Duration {
		if p.JitterStd <= 0 {
			return nominal
		}
		f := math.Exp(p.JitterStd * in.actRng.NormFloat64())
		return time.Duration(float64(nominal) * f)
	}
	cost := attempt()
	if p.FailProb <= 0 || in.actRng.Float64() >= p.FailProb {
		return true, cost - nominal
	}
	total := cost
	for r := 0; r < p.Retries; r++ {
		in.log("actuator", "transition-retry", "")
		cost = attempt()
		if in.actRng.Float64() >= p.FailProb {
			// The successful attempt's nominal cost is charged by the
			// actuator itself; everything else is extra.
			return true, total + cost - nominal
		}
		total += cost
	}
	in.log("actuator", "transition-fail", fmt.Sprintf("abandoned after %d attempts", 1+p.Retries))
	return false, total
}

// Drain returns and clears the events logged since the last call.
func (in *Injector) Drain() []Event {
	ev := in.events
	in.events = nil
	return ev
}
