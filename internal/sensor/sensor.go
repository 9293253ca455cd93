// Package sensor simulates the paper's power-measurement apparatus: a
// Radisys board with high-precision sense resistors between the
// voltage regulators and the processor, feeding a National Instruments
// SCXI-1125 + PCI-6052E data-acquisition chain.
//
// The simulated chain converts true power (package power) into the
// measured samples the evaluation sees: shunt + amplifier gain error,
// additive noise, and ADC quantization. Tests can use Ideal for exact
// readings.
package sensor

import (
	"fmt"
	"math/rand"
)

// Chain models the analog front end and digitizer.
type Chain struct {
	// GainError is the multiplicative calibration error of the
	// shunt/amplifier path (e.g. 0.01 = reads 1% high).
	GainError float64
	// NoiseStdW is the standard deviation of additive Gaussian noise
	// per sample, in watts.
	NoiseStdW float64
	// QuantStepW is the ADC quantization step in watts.
	QuantStepW float64
}

// NIDefault returns the default chain calibrated to the paper's setup:
// a 16-bit DAQ over a ~30 W full-scale range gives sub-milliwatt
// quantization; board-level noise dominates at a few tens of
// milliwatts.
func NIDefault() Chain {
	return Chain{
		GainError:  0.002,
		NoiseStdW:  0.04,
		QuantStepW: 0.001,
	}
}

// Validate reports implausible chain parameters.
func (c Chain) Validate() error {
	switch {
	case c.GainError < -0.5 || c.GainError > 0.5:
		return fmt.Errorf("sensor: gain error %g outside [-0.5,0.5]", c.GainError)
	case c.NoiseStdW < 0:
		return fmt.Errorf("sensor: negative noise")
	case c.QuantStepW < 0:
		return fmt.Errorf("sensor: negative quantization step")
	}
	return nil
}

// Measure converts a true power value into one measured sample. rng
// supplies the noise; a nil rng yields the noise-free reading.
func (c Chain) Measure(trueW float64, rng *rand.Rand) float64 {
	return (&c).MeasureP(trueW, rng)
}

// MeasureP is Measure on a pointer receiver, for hot loops that hold
// the chain in a slice and want to skip the receiver copy. Identical
// arithmetic.
func (c *Chain) MeasureP(trueW float64, rng *rand.Rand) float64 {
	v := trueW * (1 + c.GainError)
	if rng != nil && c.NoiseStdW > 0 {
		v += rng.NormFloat64() * c.NoiseStdW
	}
	if c.QuantStepW > 0 {
		steps := v / c.QuantStepW
		v = float64(int64(steps+0.5)) * c.QuantStepW
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Prepared is a measurement chain with its per-sample constants
// folded: the gain multiplier (1 + GainError) is computed once instead
// of per reading. Measurement results are bit-identical to
// Chain.Measure — the fold is a pure constant.
type Prepared struct {
	gain1      float64
	noiseStdW  float64
	quantStepW float64
}

// Prepare folds the chain's constants for a hot measurement loop.
func (c Chain) Prepare() Prepared {
	return Prepared{gain1: 1 + c.GainError, noiseStdW: c.NoiseStdW, quantStepW: c.QuantStepW}
}

// Measure converts a true power value into one measured sample,
// exactly as Chain.Measure does.
func (p *Prepared) Measure(trueW float64, rng *rand.Rand) float64 {
	v := trueW * p.gain1
	if rng != nil && p.noiseStdW > 0 {
		v += rng.NormFloat64() * p.noiseStdW
	}
	if p.quantStepW > 0 {
		steps := v / p.quantStepW
		v = float64(int64(steps+0.5)) * p.quantStepW
	}
	if v < 0 {
		v = 0
	}
	return v
}
