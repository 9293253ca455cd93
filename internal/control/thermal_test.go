package control

import (
	"testing"

	"aapm/internal/machine"
	"aapm/internal/thermal"
)

func tgConfig(reactive bool) ThermalGuardConfig {
	return ThermalGuardConfig{
		LimitC:   75,
		Thermal:  thermal.PentiumMThermal(),
		Reactive: reactive,
	}
}

func thermalTick(freqMHz int, dpc, tempC float64) machine.TickInfo {
	info := tick(freqMHz, dpc, dpc/1.2, 0.1, 0)
	info.TempC = tempC
	return info
}

func TestThermalGuardValidation(t *testing.T) {
	if _, err := NewThermalGuard(ThermalGuardConfig{LimitC: 75}); err == nil {
		t.Error("invalid thermal config accepted")
	}
	cfg := tgConfig(false)
	cfg.LimitC = 40 // below 45 ambient
	if _, err := NewThermalGuard(cfg); err == nil {
		t.Error("limit below ambient accepted")
	}
	tg, err := NewThermalGuard(tgConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if tg.Name() != "TG-pred(75C)" {
		t.Errorf("Name = %q", tg.Name())
	}
	rg, _ := NewThermalGuard(tgConfig(true))
	if rg.Name() != "TG-react(75C)" {
		t.Errorf("Name = %q", rg.Name())
	}
}

func TestReactiveGuardStepsDownWhenHot(t *testing.T) {
	tg, _ := NewThermalGuard(tgConfig(true))
	got := decide(tg, thermalTick(2000, 1.8, 76))
	if got != 6 { // one step below the 2000 MHz index 7
		t.Errorf("hot tick chose index %d, want 6", got)
	}
	// At the floor it stays put.
	got = decide(tg, thermalTick(600, 1.8, 80))
	if got != 0 {
		t.Errorf("hot tick at min chose %d", got)
	}
}

func TestReactiveGuardStepsUpSlowly(t *testing.T) {
	tg, _ := NewThermalGuard(tgConfig(true))
	cool := thermalTick(1600, 1.0, 70)
	for k := 0; k < DefaultRaiseTicks-1; k++ {
		if got := decide(tg, cool); got != 5 {
			t.Fatalf("raised after %d cool samples", k+1)
		}
	}
	if got := decide(tg, cool); got != 6 {
		t.Errorf("did not raise after %d cool samples (got %d)", DefaultRaiseTicks, got)
	}
}

func TestReactiveGuardHoldsInDeadband(t *testing.T) {
	tg, _ := NewThermalGuard(tgConfig(true))
	if got := decide(tg, thermalTick(1600, 1.0, 74)); got != 5 {
		t.Errorf("deadband tick moved to %d", got)
	}
}

func TestPredictiveGuardUsesHeadroom(t *testing.T) {
	tg, _ := NewThermalGuard(tgConfig(false))
	// Cold die: plenty of transient headroom, high states allowed even
	// for a hot workload.
	coldWant := decide(tg, thermalTick(2000, 1.9, 46))
	// Near the limit: budget collapses to the sustained power for
	// 74 °C = (74-45)/1.7 ~ 17 W; a 1.9-DPC workload (>17.6 W at
	// 2000 MHz) must be capped below the top state.
	tg2, _ := NewThermalGuard(tgConfig(false))
	hotWant := decide(tg2, thermalTick(2000, 1.9, 74))
	if hotWant >= coldWant {
		t.Errorf("predictive guard ignored temperature: cold->%d hot->%d", coldWant, hotWant)
	}
	if hotWant >= 7 {
		t.Errorf("hot die still allowed top state (index %d)", hotWant)
	}
}

func TestPredictiveGuardRaiseHysteresis(t *testing.T) {
	tg, _ := NewThermalGuard(tgConfig(false))
	cool := thermalTick(1400, 0.8, 50)
	for k := 0; k < DefaultRaiseTicks-1; k++ {
		if got := decide(tg, cool); got != 4 {
			t.Fatalf("raised after only %d cool ticks (to %d)", k+1, got)
		}
	}
	if got := decide(tg, cool); got <= 4 {
		t.Errorf("did not raise after %d cool ticks (got %d)", DefaultRaiseTicks, got)
	}
}

func TestThrottleSaveValidation(t *testing.T) {
	if _, err := NewThrottleSave(ThrottleSaveConfig{}); err == nil {
		t.Error("zero floor accepted")
	}
	if _, err := NewThrottleSave(ThrottleSaveConfig{Floor: 0.5, Levels: 1}); err == nil {
		t.Error("single level accepted")
	}
	ts, err := NewThrottleSave(ThrottleSaveConfig{Floor: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if ts.Name() != "Throttle(80%)" {
		t.Errorf("Name = %q", ts.Name())
	}
}

func TestThrottleSavePinsMaxAndSetsDuty(t *testing.T) {
	cases := []struct {
		floor float64
		duty  float64
	}{
		{0.80, 7.0 / 8},
		{0.75, 6.0 / 8},
		{0.50, 4.0 / 8},
		{0.10, 1.0 / 8},
		{1.00, 1.0},
	}
	for _, c := range cases {
		ts, err := NewThrottleSave(ThrottleSaveConfig{Floor: c.floor})
		if err != nil {
			t.Fatal(err)
		}
		got := decide(ts, tick(2000, 1.5, 1.4, 0.1, 0))
		if got != 7 {
			t.Errorf("floor %.2f: index %d, want max", c.floor, got)
		}
		if ts.Duty() != c.duty {
			t.Errorf("floor %.2f: duty %.3f, want %.3f", c.floor, ts.Duty(), c.duty)
		}
	}
}
