package sensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestChainValidation(t *testing.T) {
	if err := Ideal().Validate(); err != nil {
		t.Errorf("Ideal invalid: %v", err)
	}
	if err := NIDefault().Validate(); err != nil {
		t.Errorf("NIDefault invalid: %v", err)
	}
	bad := []Chain{
		{GainError: 0.6},
		{GainError: -0.6},
		{NoiseStdW: -1},
		{QuantStepW: -0.1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", c)
		}
	}
}

func TestIdealChainIsExact(t *testing.T) {
	c := Ideal()
	rng := rand.New(rand.NewSource(1))
	for _, w := range []float64{0, 3.86, 17.78} {
		if got := c.Measure(w, rng); got != w {
			t.Errorf("Measure(%g) = %g, want exact", w, got)
		}
	}
}

func TestGainErrorApplied(t *testing.T) {
	c := Chain{GainError: 0.01}
	if got := c.Measure(10, nil); math.Abs(got-10.1) > 1e-12 {
		t.Errorf("Measure = %g, want 10.1", got)
	}
}

func TestQuantization(t *testing.T) {
	c := Chain{QuantStepW: 0.5}
	if got := c.Measure(10.30, nil); got != 10.5 {
		t.Errorf("Measure(10.30) = %g, want 10.5", got)
	}
	if got := c.Measure(10.20, nil); got != 10.0 {
		t.Errorf("Measure(10.20) = %g, want 10.0", got)
	}
}

func TestNoiseStatistics(t *testing.T) {
	c := Chain{NoiseStdW: 0.05}
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := c.Measure(10, rng) - 10
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.002 {
		t.Errorf("noise mean = %g, want ~0", mean)
	}
	if math.Abs(std-0.05) > 0.005 {
		t.Errorf("noise std = %g, want ~0.05", std)
	}
}

func TestNilRNGSkipsNoise(t *testing.T) {
	c := Chain{NoiseStdW: 1}
	if got := c.Measure(10, nil); got != 10 {
		t.Errorf("Measure with nil rng = %g, want 10", got)
	}
}

func TestMeasureClampsNegative(t *testing.T) {
	c := Chain{GainError: -0.5}
	if got := c.Measure(0.0001, nil); got < 0 {
		t.Errorf("negative measurement %g", got)
	}
}
