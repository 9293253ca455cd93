package thermal

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestConfigValidation(t *testing.T) {
	if err := PentiumMThermal().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{AmbientC: 45, ResistanceCW: 0, CapacitanceJC: 7},
		{AmbientC: 45, ResistanceCW: 1.7, CapacitanceJC: 0},
		{AmbientC: 200, ResistanceCW: 1.7, CapacitanceJC: 7},
		{AmbientC: 45, ResistanceCW: 1.7, CapacitanceJC: 7, SensorStepC: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", c)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New accepted %+v", c)
		}
	}
}

func TestSteadyStateInversion(t *testing.T) {
	c := PentiumMThermal()
	if got := c.SteadyC(10); got != 45+19 {
		t.Errorf("SteadyC(10) = %g, want 64", got)
	}
	if got := c.PowerForC(64); math.Abs(got-10) > 1e-12 {
		t.Errorf("PowerForC(64) = %g, want 10", got)
	}
	if got := c.PowerForC(40); got != 0 {
		t.Errorf("PowerForC below ambient = %g, want clamped 0", got)
	}
}

func TestTimeConstant(t *testing.T) {
	c := Config{AmbientC: 45, ResistanceCW: 2, CapacitanceJC: 5}
	if got := c.TimeConstant(); got != 10*time.Second {
		t.Errorf("TimeConstant = %v, want 10s", got)
	}
}

func TestModelStartsAtAmbient(t *testing.T) {
	m, err := New(PentiumMThermal())
	if err != nil {
		t.Fatal(err)
	}
	if m.tempC != 45 {
		t.Errorf("initial temp = %g, want ambient 45", m.tempC)
	}
	m2, _ := New(Config{AmbientC: 45, ResistanceCW: 1.7, CapacitanceJC: 7, InitialC: 60})
	if m2.tempC != 60 {
		t.Errorf("explicit initial temp = %g", m2.tempC)
	}
}

func TestStepConvergesToSteadyState(t *testing.T) {
	m, _ := New(PentiumMThermal())
	want := m.cfg.SteadyC(15)
	for i := 0; i < 20000; i++ {
		m.Step(15, 10*time.Millisecond)
	}
	if math.Abs(m.tempC-want) > 0.01 {
		t.Errorf("temp after long run = %g, want steady %g", m.tempC, want)
	}
}

func TestStepExponentialResponse(t *testing.T) {
	m, _ := New(PentiumMThermal())
	tau := m.cfg.TimeConstant()
	m.Step(15, tau) // one time constant: ~63.2% of the way
	want := 45 + (m.cfg.SteadyC(15)-45)*(1-math.Exp(-1))
	if math.Abs(m.tempC-want) > 1e-9 {
		t.Errorf("temp after 1 tau = %g, want %g", m.tempC, want)
	}
}

func TestStepLargeDtStable(t *testing.T) {
	m, _ := New(PentiumMThermal())
	// A huge step must land exactly at steady state, never overshoot
	// (the closed form is unconditionally stable).
	m.Step(15, time.Hour)
	if math.Abs(m.tempC-m.cfg.SteadyC(15)) > 1e-9 {
		t.Errorf("temp after 1h = %g", m.tempC)
	}
	m.Step(0, time.Hour)
	if math.Abs(m.tempC-45) > 1e-9 {
		t.Errorf("cooldown temp = %g, want ambient", m.tempC)
	}
}

func TestStepZeroDt(t *testing.T) {
	m, _ := New(PentiumMThermal())
	before := m.tempC
	if got := m.Step(100, 0); got != before {
		t.Errorf("zero-dt step changed temp to %g", got)
	}
}

func TestSensorQuantization(t *testing.T) {
	m, _ := New(Config{AmbientC: 45, ResistanceCW: 1.7, CapacitanceJC: 7, InitialC: 61.7, SensorStepC: 0.5})
	if got := m.SensorC(); got != 61.5 {
		t.Errorf("SensorC = %g, want 61.5", got)
	}
}

// Property: temperature always stays between the initial value and the
// steady-state target (monotone approach, no overshoot).
func TestNoOvershoot(t *testing.T) {
	f := func(p8 uint8, steps uint8) bool {
		m, err := New(PentiumMThermal())
		if err != nil {
			return false
		}
		p := float64(p8) / 10 // 0..25.5 W
		target := m.cfg.SteadyC(p)
		lo, hi := 45.0, target
		if lo > hi {
			lo, hi = hi, lo
		}
		for i := 0; i < int(steps); i++ {
			temp := m.Step(p, 10*time.Millisecond)
			if temp < lo-1e-9 || temp > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
