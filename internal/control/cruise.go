package control

import (
	"fmt"

	"aapm/internal/machine"
	"aapm/internal/model"
	"aapm/internal/trace"
)

// CruiseControlConfig parameterizes a CruiseControl governor.
type CruiseControlConfig struct {
	// Slowdown is the tolerated per-interval slowdown (e.g. 0.1 =
	// each interval may run up to 10% slower than it would at maximum
	// frequency). Plays the role of Process Cruise Control's
	// precomputed table tolerance.
	Slowdown float64
	// Perf is the IPC projection model used to build the lookup
	// decision; the zero value selects the published eq. 3 parameters.
	Perf model.PerfModel
	// Quantize rounds the memory-intensity input to this many buckets
	// per unit of DCU/IPC, emulating the original's coarse
	// (memory-references, instructions) lookup table; 0 selects 4.
	Quantize int
}

// CruiseControl is a Process-Cruise-Control-style governor (Weissel &
// Bellosa, cited in §II as pioneering event-driven clock scaling): it
// reduces frequency according to a workload's memory intensity, read
// from a quantized counter-derived table, accepting a fixed small
// slowdown. Unlike PowerSave it has no explicit end-to-end floor — the
// tolerance applies per interval and the table is coarse, which is
// exactly the gap PS's model-based projection closes.
type CruiseControl struct {
	cfg CruiseControlConfig
}

// NewCruiseControl validates cfg and builds the governor.
func NewCruiseControl(cfg CruiseControlConfig) (*CruiseControl, error) {
	if cfg.Slowdown <= 0 || cfg.Slowdown >= 1 {
		return nil, fmt.Errorf("control: cruise slowdown %g outside (0,1)", cfg.Slowdown)
	}
	if cfg.Perf == (model.PerfModel{}) {
		cfg.Perf = model.PaperPerfModel()
	}
	if err := cfg.Perf.Validate(); err != nil {
		return nil, err
	}
	if cfg.Quantize <= 0 {
		cfg.Quantize = 4
	}
	return &CruiseControl{cfg: cfg}, nil
}

// Name identifies the policy in traces.
func (cc *CruiseControl) Name() string {
	return fmt.Sprintf("cruise(%.0f%%)", cc.cfg.Slowdown*100)
}

// Tick quantizes the sample's memory intensity and picks the lowest
// frequency whose projected per-interval performance stays within the
// slowdown tolerance of the projected maximum.
func (cc *CruiseControl) Tick(info *machine.TickInfo) (int, []trace.Degradation) {
	ipc := info.Sample.IPC()
	if ipc == 0 {
		return 0, nil
	}
	// Coarse table index: DCU/IPC rounded down to 1/Quantize steps.
	q := float64(cc.cfg.Quantize)
	dcu := float64(int(info.Sample.DCUPerInst()*q)) / q
	from := info.PState.FreqMHz
	maxIdx := info.Table.Len() - 1
	peak := cc.cfg.Perf.ProjectPerf(ipc, dcu, from, info.Table.At(maxIdx).FreqMHz)
	if peak <= 0 {
		return info.PStateIndex, nil
	}
	need := (1 - cc.cfg.Slowdown) * peak * (1 - 1e-9)
	for i := 0; i <= maxIdx; i++ {
		if cc.cfg.Perf.ProjectPerf(ipc, dcu, from, info.Table.At(i).FreqMHz) >= need {
			return i, nil
		}
	}
	return maxIdx, nil
}
