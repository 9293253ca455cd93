package control

import "testing"

func TestCruiseControlValidation(t *testing.T) {
	if _, err := NewCruiseControl(CruiseControlConfig{}); err == nil {
		t.Error("zero slowdown accepted")
	}
	if _, err := NewCruiseControl(CruiseControlConfig{Slowdown: 1}); err == nil {
		t.Error("slowdown 1 accepted")
	}
	cc, err := NewCruiseControl(CruiseControlConfig{Slowdown: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if cc.Name() != "cruise(10%)" {
		t.Errorf("Name = %q", cc.Name())
	}
}

func TestCruiseControlCoreBoundHoldsHighFrequency(t *testing.T) {
	cc, _ := NewCruiseControl(CruiseControlConfig{Slowdown: 0.1})
	got := decide(cc, tick(2000, 1.5, 1.4, 0.1, 0))
	// 10% tolerated slowdown, core-bound: lowest f with f/2000 >= 0.9
	// is 1800.
	if f := tickTable().At(got).FreqMHz; f != 1800 {
		t.Errorf("core-bound cruise chose %d MHz, want 1800", f)
	}
}

func TestCruiseControlMemoryBoundDropsFurther(t *testing.T) {
	cc, _ := NewCruiseControl(CruiseControlConfig{Slowdown: 0.1})
	got := decide(cc, tick(2000, 0.3, 0.2, 4.0, 0))
	// Memory-bound with e=0.81: (f'/2000)^0.19 >= 0.9 first holds at
	// f' >= 2000*0.9^(1/0.19) ~ 1148 -> 1200 MHz.
	if f := tickTable().At(got).FreqMHz; f != 1200 {
		t.Errorf("memory-bound cruise chose %d MHz, want 1200", f)
	}
}

func TestCruiseControlQuantizesIntensity(t *testing.T) {
	// DCU/IPC 1.24 quantizes down to 1.0 with 4 buckets — below the
	// 1.21 threshold, so the coarse table misclassifies a borderline
	// memory-bound sample as core-bound (the precision PS's direct
	// model use avoids).
	cc, _ := NewCruiseControl(CruiseControlConfig{Slowdown: 0.1})
	got := decide(cc, tick(2000, 0.5, 0.4, 1.24, 0))
	if f := tickTable().At(got).FreqMHz; f != 1800 {
		t.Errorf("borderline sample chose %d MHz, want 1800 (quantized core-bound)", f)
	}
	// A finer table preserves the classification.
	fine, _ := NewCruiseControl(CruiseControlConfig{Slowdown: 0.1, Quantize: 100})
	got = decide(fine, tick(2000, 0.5, 0.4, 1.24, 0))
	if f := tickTable().At(got).FreqMHz; f != 1200 {
		t.Errorf("fine-table sample chose %d MHz, want 1200", f)
	}
}

func TestCruiseControlIdleGoesToMinimum(t *testing.T) {
	cc, _ := NewCruiseControl(CruiseControlConfig{Slowdown: 0.1})
	if got := decide(cc, tick(2000, 0, 0, 0, 0)); got != 0 {
		t.Errorf("idle tick chose %d", got)
	}
}
