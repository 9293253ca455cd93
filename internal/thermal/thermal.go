// Package thermal models the processor's die temperature as a
// first-order RC network — the standard lumped model behind on-die
// thermal management (the paper's introduction places thermal concerns
// alongside power; Intel's Foxton, discussed in §II, closes the loop
// on both).
//
// Physics: a thermal capacitance C (J/°C) charges through the package
// thermal resistance R (°C/W) toward the ambient:
//
//	C * dT/dt = P - (T - Tamb)/R
//
// so a constant power P settles at Tamb + R*P with time constant R*C.
// The machine steps the model with true power each interval; policies
// observe a quantized digital thermal sensor reading.
package thermal

import (
	"fmt"
	"math"
	"time"
)

// Config describes the package's thermal path.
type Config struct {
	// AmbientC is the local ambient (inside-chassis) temperature.
	AmbientC float64
	// ResistanceCW is junction-to-ambient thermal resistance in °C/W.
	ResistanceCW float64
	// CapacitanceJC is the lumped thermal capacitance in J/°C.
	CapacitanceJC float64
	// InitialC is the die temperature at reset; 0 selects ambient.
	InitialC float64
	// SensorStepC is the digital thermal sensor quantization; 0
	// selects 0.5 °C.
	SensorStepC float64
}

// PentiumMThermal returns a thermal path representative of the paper's
// platform class: ~45 °C chassis ambient, 1.9 °C/W junction-to-ambient
// (the 2 GHz worst-case workload settles a few degrees above a 75 °C
// limit) and a ~4 s die+spreader time constant, so sustained hot
// workloads cross the limit within seconds.
func PentiumMThermal() Config {
	return Config{
		AmbientC:      45,
		ResistanceCW:  1.9,
		CapacitanceJC: 2,
		SensorStepC:   0.5,
	}
}

// Validate reports implausible parameters.
func (c Config) Validate() error {
	switch {
	case c.ResistanceCW <= 0:
		return fmt.Errorf("thermal: non-positive resistance %g", c.ResistanceCW)
	case c.CapacitanceJC <= 0:
		return fmt.Errorf("thermal: non-positive capacitance %g", c.CapacitanceJC)
	case c.AmbientC < -60 || c.AmbientC > 120:
		return fmt.Errorf("thermal: implausible ambient %g°C", c.AmbientC)
	case c.SensorStepC < 0:
		return fmt.Errorf("thermal: negative sensor step")
	}
	return nil
}

// TimeConstant returns R*C.
func (c Config) TimeConstant() time.Duration {
	return time.Duration(c.ResistanceCW * c.CapacitanceJC * float64(time.Second))
}

// SteadyC returns the settling temperature under constant power.
func (c Config) SteadyC(powerW float64) float64 {
	return c.AmbientC + c.ResistanceCW*powerW
}

// PowerForC inverts SteadyC: the sustained power that settles at the
// given temperature. Negative results clamp to zero (the limit is
// below ambient).
func (c Config) PowerForC(tempC float64) float64 {
	p := (tempC - c.AmbientC) / c.ResistanceCW
	if p < 0 {
		p = 0
	}
	return p
}

// Model is the die temperature integrator.
type Model struct {
	cfg   Config
	tempC float64
}

// New validates cfg and returns a model at the initial temperature.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := cfg.InitialC
	if t == 0 {
		t = cfg.AmbientC
	}
	if cfg.SensorStepC == 0 {
		cfg.SensorStepC = 0.5
	}
	return &Model{cfg: cfg, tempC: t}, nil
}

// SensorC returns the quantized digital-thermal-sensor reading.
func (m *Model) SensorC() float64 {
	s := m.cfg.SensorStepC
	return math.Floor(m.tempC/s) * s
}

// Step integrates the model over dt under the given power and returns
// the new exact temperature. It uses the closed-form exponential
// response, so large steps remain stable.
func (m *Model) Step(powerW float64, dt time.Duration) float64 {
	if dt <= 0 {
		return m.tempC
	}
	target := m.cfg.SteadyC(powerW)
	tau := m.cfg.ResistanceCW * m.cfg.CapacitanceJC
	k := math.Exp(-dt.Seconds() / tau)
	m.tempC = target + (m.tempC-target)*k
	return m.tempC
}
