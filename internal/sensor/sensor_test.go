package sensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestChainValidation(t *testing.T) {
	if err := (Chain{}).Validate(); err != nil {
		t.Errorf("zero chain invalid: %v", err)
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
	var c Chain // the zero chain is noiseless and perfectly calibrated
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

// TestPreparedMatchesChain checks that the folded chain the tick engine
// measures through reads bit for bit what Chain.Measure reads: gain
// error, noise from two equally seeded RNGs, quantization, the
// negative clamp and a nil RNG.
func TestPreparedMatchesChain(t *testing.T) {
	chains := []Chain{
		{},
		{GainError: 0.013},
		{GainError: -0.5},
		{NoiseStdW: 0.8},
		{QuantStepW: 0.25},
		{GainError: -0.02, NoiseStdW: 3, QuantStepW: 0.001},
		NIDefault(),
	}
	inputs := []float64{0, 1e-4, 0.3, 3.86, 10.30, 17.78, -0.7, -20}
	for _, c := range chains {
		p := c.Prepare()
		for _, seeded := range []bool{true, false} {
			var rc, rp *rand.Rand
			if seeded {
				rc, rp = rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			}
			for round := 0; round < 50; round++ {
				for _, w := range inputs {
					want, got := c.Measure(w, rc), p.Measure(w, rp)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%+v, rng %v: Prepared.Measure(%g) = %v, Chain.Measure = %v", c, seeded, w, got, want)
					}
				}
			}
		}
	}
}
