package faults

import (
	"math"
	"testing"
	"time"

	"aapm/internal/counters"
)

func sample(cycles, decoded uint64) counters.Sample {
	var s counters.Sample
	s.SetCount(counters.Cycles, cycles)
	s.SetCount(counters.InstDecoded, decoded)
	return s
}

func TestPlanValidate(t *testing.T) {
	good := []Plan{
		{},
		Preset(0.05),
		{Sensor: SensorPlan{DropoutProb: 1, DropoutTicks: 100}},
		{Actuator: ActuatorPlan{FailProb: 0.5, Retries: 16, JitterStd: 4}},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", p, err)
		}
	}
	bad := []Plan{
		{Sensor: SensorPlan{DropoutProb: -0.1}},
		{Sensor: SensorPlan{StuckProb: 1.5}},
		{Sensor: SensorPlan{DropoutTicks: -1}},
		{Sensor: SensorPlan{SpikeMagW: -1}},
		{Sensor: SensorPlan{GainDriftPerTick: 0.5}},
		{Counter: CounterPlan{MissProb: math.NaN()}},
		{Actuator: ActuatorPlan{FailProb: 2}},
		{Actuator: ActuatorPlan{JitterStd: -1}},
		{Actuator: ActuatorPlan{Retries: 99}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", p)
		}
	}
}

func TestZero(t *testing.T) {
	if !(Plan{}).Zero() {
		t.Error("zero plan should report Zero")
	}
	if (Plan{Sensor: SensorPlan{DropoutProb: 0.1}}).Zero() {
		t.Error("dropout plan should not report Zero")
	}
	if Preset(0.05).Zero() {
		t.Error("preset should not report Zero")
	}
}

// TestDeterminism: two injectors on the same plan+seed produce the
// same corrupted values, event log and transition outcomes.
func TestDeterminism(t *testing.T) {
	plan := Preset(0.2)
	a, err := NewInjector(plan, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(plan, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		a.BeginTick()
		b.BeginTick()
		s := sample(20_000_000, 24_000_000)
		sa, sb := a.Counters(s), b.Counters(s)
		if sa != sb {
			t.Fatalf("tick %d: counter samples diverge", i)
		}
		wa, wb := a.Sense(14.0), b.Sense(14.0)
		if wa != wb && !(math.IsNaN(wa) && math.IsNaN(wb)) {
			t.Fatalf("tick %d: sensed %g vs %g", i, wa, wb)
		}
		oka, ea := a.Transition(30 * time.Microsecond)
		okb, eb := b.Transition(30 * time.Microsecond)
		if oka != okb || ea != eb {
			t.Fatalf("tick %d: transitions diverge", i)
		}
	}
	ca, cb := counts(a), counts(b)
	if len(ca) == 0 {
		t.Fatal("20% preset injected nothing over 500 ticks")
	}
	for k, v := range ca {
		if cb[k] != v {
			t.Fatalf("count %q: %d vs %d", k, v, cb[k])
		}
	}
}

// TestSeedsDiffer: different seeds draw different fault timelines.
func TestSeedsDiffer(t *testing.T) {
	plan := Plan{Sensor: SensorPlan{DropoutProb: 0.3, DropoutTicks: 2}}
	a, _ := NewInjector(plan, 1)
	b, _ := NewInjector(plan, 2)
	same := true
	for i := 0; i < 200; i++ {
		a.BeginTick()
		b.BeginTick()
		a.Counters(counters.Sample{})
		b.Counters(counters.Sample{})
		if math.IsNaN(a.Sense(10)) != math.IsNaN(b.Sense(10)) {
			same = false
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical dropout timelines")
	}
}

// TestEnvStreamPolicyIndependent: the sensor/counter fault timeline
// must not depend on how often Transition is consulted (policies
// diverge there), so paired comparisons stay paired.
func TestEnvStreamPolicyIndependent(t *testing.T) {
	plan := Preset(0.15)
	a, _ := NewInjector(plan, 7)
	b, _ := NewInjector(plan, 7)
	for i := 0; i < 300; i++ {
		a.BeginTick()
		b.BeginTick()
		s := sample(10_000_000, 9_000_000)
		sa, sb := a.Counters(s), b.Counters(s)
		wa, wb := a.Sense(12.5), b.Sense(12.5)
		if sa != sb {
			t.Fatalf("tick %d: counter streams diverged", i)
		}
		if wa != wb && !(math.IsNaN(wa) && math.IsNaN(wb)) {
			t.Fatalf("tick %d: sensor streams diverged (%g vs %g)", i, wa, wb)
		}
		// Only a asks for transitions; b never does.
		if i%3 == 0 {
			a.Transition(30 * time.Microsecond)
		}
	}
}

func TestSensorDropoutEpisode(t *testing.T) {
	in, _ := NewInjector(Plan{Sensor: SensorPlan{DropoutProb: 1, DropoutTicks: 3}}, 1)
	nan := 0
	for i := 0; i < 30; i++ {
		in.BeginTick()
		if math.IsNaN(in.Sense(10)) {
			nan++
		}
	}
	if nan != 30 {
		t.Errorf("DropoutProb=1: %d/30 NaN samples, want 30", nan)
	}
	if counts(in)["sensor/dropout"] == 0 {
		t.Error("no dropout events logged")
	}
}

func TestSensorStuck(t *testing.T) {
	in, _ := NewInjector(Plan{Sensor: SensorPlan{StuckProb: 1, StuckTicks: 5}}, 1)
	in.BeginTick()
	first := in.Sense(10) // no previous value: passes through, arms stuck
	if first != 10 {
		t.Fatalf("first sample %g, want 10", first)
	}
	for i := 0; i < 5; i++ {
		in.BeginTick()
		if got := in.Sense(20); got != 10 {
			t.Fatalf("stuck tick %d read %g, want frozen 10", i, got)
		}
	}
}

func TestSensorGainDrift(t *testing.T) {
	in, _ := NewInjector(Plan{Sensor: SensorPlan{GainDriftPerTick: 1e-3}}, 1)
	var last float64
	for i := 0; i < 100; i++ {
		in.BeginTick()
		last = in.Sense(10)
	}
	want := 10 * math.Pow(1.001, 100)
	if math.Abs(last-want) > 1e-9 {
		t.Errorf("after 100 ticks of 0.1%% drift: %g, want %g", last, want)
	}
}

func TestCounterMiss(t *testing.T) {
	in, _ := NewInjector(Plan{Counter: CounterPlan{MissProb: 1}}, 1)
	in.BeginTick()
	out := in.Counters(sample(1000, 900))
	if out != (counters.Sample{}) {
		t.Errorf("missed read returned non-zero sample %+v", out)
	}
}

func TestCounterSaturate(t *testing.T) {
	in, _ := NewInjector(Plan{Counter: CounterPlan{SaturateProb: 1, SaturateAt: 500}}, 1)
	in.BeginTick()
	out := in.Counters(sample(1000, 100))
	if out.Count(counters.Cycles) != 500 {
		t.Errorf("cycles %d, want saturated 500", out.Count(counters.Cycles))
	}
	if out.Count(counters.InstDecoded) != 100 {
		t.Errorf("decoded %d, want untouched 100", out.Count(counters.InstDecoded))
	}
}

func TestCounterWrapProducesImplausibleRate(t *testing.T) {
	in, _ := NewInjector(Plan{Counter: CounterPlan{WrapProb: 1}}, 3)
	saw := false
	for i := 0; i < 50 && !saw; i++ {
		in.BeginTick()
		out := in.Counters(sample(20_000_000, 24_000_000))
		for e := counters.Event(0); int(e) < counters.NumEvents; e++ {
			if out.Count(e) > 1<<31 {
				saw = true
			}
		}
	}
	if !saw {
		t.Error("wrap never produced a >2^31 delta in 50 ticks")
	}
}

func TestActuatorAlwaysFails(t *testing.T) {
	in, _ := NewInjector(Plan{Actuator: ActuatorPlan{FailProb: 1, Retries: 2}}, 1)
	ok, extra := in.Transition(30 * time.Microsecond)
	if ok {
		t.Fatal("FailProb=1 transition succeeded")
	}
	if extra < 3*30*time.Microsecond {
		t.Errorf("failed 3-attempt transition cost %v, want >= 90µs", extra)
	}
	if c := counts(in); c["actuator/transition-fail"] != 1 || c["actuator/transition-retry"] != 2 {
		t.Errorf("counts = %v, want 1 fail + 2 retries", c)
	}
}

func TestActuatorCleanWhenNoFaults(t *testing.T) {
	in, _ := NewInjector(Plan{Sensor: SensorPlan{DropoutProb: 0.5}}, 1)
	ok, extra := in.Transition(30 * time.Microsecond)
	if !ok || extra != 0 {
		t.Errorf("no actuator faults: got ok=%v extra=%v, want true/0", ok, extra)
	}
}

func TestDrain(t *testing.T) {
	in, _ := NewInjector(Plan{Counter: CounterPlan{MissProb: 1}}, 1)
	in.BeginTick()
	in.Counters(sample(10, 5))
	ev := in.Drain()
	if len(ev) != 1 || ev[0].Kind != "miss" || ev[0].Source != "counters" || ev[0].Tick != 1 {
		t.Fatalf("Drain = %+v, want one counters/miss at tick 1", ev)
	}
	if len(in.Drain()) != 0 {
		t.Error("second Drain not empty")
	}
}

func TestInvalidPlanRejected(t *testing.T) {
	if _, err := NewInjector(Plan{Sensor: SensorPlan{DropoutProb: 2}}, 1); err == nil {
		t.Fatal("NewInjector accepted an invalid plan")
	}
}

// counts tallies the events logged since the last Drain by
// "source/kind".
func counts(in *Injector) map[string]int {
	out := map[string]int{}
	for _, e := range in.Drain() {
		out[e.Source+"/"+e.Kind]++
	}
	return out
}
