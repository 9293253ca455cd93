package control

import (
	"fmt"

	"aapm/internal/machine"
	"aapm/internal/phasedetect"
	"aapm/internal/trace"
)

// PhaseAwarePM wraps a PerformanceMaximizer with an online phase
// detector over the decode rate: when the workload demonstrably
// switches regimes, the wrapper arms PM to act on the very next
// supporting sample instead of waiting out the 100 ms up-shift
// hysteresis. Down-shifts are untouched (they were already immediate),
// so the safety property is preserved; only the recovery after a
// hot-to-cool phase boundary accelerates.
type PhaseAwarePM struct {
	pm  *PerformanceMaximizer
	det *phasedetect.Detector
}

// NewPhaseAwarePM wraps pm with a detector over DPC; window is in
// monitoring intervals (0 selects 4) and relDelta is the mean-shift
// threshold (0 selects 0.25).
func NewPhaseAwarePM(pm *PerformanceMaximizer, window int, relDelta float64) (*PhaseAwarePM, error) {
	if pm == nil {
		return nil, fmt.Errorf("control: nil PM")
	}
	if window == 0 {
		window = 4
	}
	if relDelta == 0 {
		relDelta = 0.25
	}
	det, err := phasedetect.New(window, relDelta)
	if err != nil {
		return nil, err
	}
	return &PhaseAwarePM{pm: pm, det: det}, nil
}

// Name identifies the policy in traces.
func (p *PhaseAwarePM) Name() string { return p.pm.Name() + "+phase" }

// Tick feeds the detector and delegates to PM, bypassing the up-shift
// hysteresis on a detected phase change. PM's degradations pass
// through.
func (p *PhaseAwarePM) Tick(info *machine.TickInfo) (int, []trace.Degradation) {
	if p.det.Observe(info.Sample.DPC()) {
		p.pm.BypassHysteresis()
	}
	return p.pm.Tick(info)
}
