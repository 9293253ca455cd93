package control

import (
	"fmt"

	"aapm/internal/machine"
	"aapm/internal/trace"
)

// ThrottleSaveConfig parameterizes a ThrottleSave policy.
type ThrottleSaveConfig struct {
	// Floor is the minimum acceptable performance relative to peak.
	Floor float64
	// Levels is the number of ACPI T-state duty levels; 0 selects 8
	// (duty cycles 1/8 .. 8/8).
	Levels int
}

// ThrottleSave meets a performance floor with clock modulation
// (T-states) instead of DVFS: the core runs at maximum frequency and
// voltage but receives only a duty-cycle fraction of the clocks.
//
// It exists as the ablation partner of PowerSave: delivered
// performance is proportional to duty, but power only scales linearly
// (no voltage reduction), so throttling saves far less energy than
// DVFS at the same performance floor — the non-linearity of eq. 1 the
// paper builds on.
type ThrottleSave struct {
	cfg  ThrottleSaveConfig
	duty float64
}

// NewThrottleSave validates cfg and builds the policy.
func NewThrottleSave(cfg ThrottleSaveConfig) (*ThrottleSave, error) {
	if cfg.Floor <= 0 || cfg.Floor > 1 {
		return nil, fmt.Errorf("control: throttle floor %g outside (0,1]", cfg.Floor)
	}
	if cfg.Levels == 0 {
		cfg.Levels = 8
	}
	if cfg.Levels < 2 {
		return nil, fmt.Errorf("control: need at least 2 T-state levels, got %d", cfg.Levels)
	}
	return &ThrottleSave{cfg: cfg, duty: 1}, nil
}

// Name identifies the policy in traces.
func (ts *ThrottleSave) Name() string {
	return fmt.Sprintf("Throttle(%.0f%%)", ts.cfg.Floor*100)
}

// Tick pins the maximum frequency and selects the lowest duty level
// that keeps delivered performance (proportional to duty) at or above
// the floor.
func (ts *ThrottleSave) Tick(info *machine.TickInfo) (int, []trace.Degradation) {
	n := ts.cfg.Levels
	level := int(ts.cfg.Floor*float64(n) + 1 - 1e-9) // ceil(floor*n)
	if level > n {
		level = n
	}
	if level < 1 {
		level = 1
	}
	ts.duty = float64(level) / float64(n)
	return info.Table.Len() - 1, nil
}

// Duty implements machine.Throttler.
func (ts *ThrottleSave) Duty() float64 { return ts.duty }
