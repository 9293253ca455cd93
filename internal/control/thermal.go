package control

import (
	"fmt"

	"aapm/internal/machine"
	"aapm/internal/model"
	"aapm/internal/thermal"
	"aapm/internal/trace"
)

// ThermalGuardConfig parameterizes a ThermalGuard policy.
type ThermalGuardConfig struct {
	// LimitC is the die temperature ceiling to enforce.
	LimitC float64
	// Thermal is the policy's model of the package thermal path (used
	// for prediction; the platform owns the true one).
	Thermal thermal.Config
	// Model estimates power per p-state from DPC; nil selects the
	// published Table II model.
	Model *model.PowerModel
	// GuardC is subtracted from LimitC before prediction; negative
	// selects the default 1 °C, zero keeps the default too.
	GuardC float64
	// Reactive selects the naive baseline: step down one state when
	// the sensor reads at or above the limit, step back up after
	// RaiseTicks cool samples. The default (false) is the predictive
	// controller: convert the remaining thermal headroom into a power
	// budget and run the PM selection against it.
	Reactive bool
	// RaiseTicks is the up-shift hysteresis; 0 selects 10 (100 ms).
	RaiseTicks int
	// HorizonSec is the predictive controller's headroom horizon: how
	// quickly it is willing to consume the thermal capacitance. 0
	// selects 2 s.
	HorizonSec float64
}

// ThermalGuard keeps die temperature under a limit by DVFS — the
// closed-loop power/thermal envelope control the paper cites from
// Intel's Foxton (§II), built from this repository's monitor/estimate/
// control pieces.
type ThermalGuard struct {
	cfg       ThermalGuardConfig
	pendingUp int
}

// NewThermalGuard validates cfg and builds the policy.
func NewThermalGuard(cfg ThermalGuardConfig) (*ThermalGuard, error) {
	if err := cfg.Thermal.Validate(); err != nil {
		return nil, err
	}
	if cfg.LimitC <= cfg.Thermal.AmbientC {
		return nil, fmt.Errorf("control: thermal limit %g°C at or below ambient %g°C", cfg.LimitC, cfg.Thermal.AmbientC)
	}
	if cfg.Model == nil {
		cfg.Model = model.PaperPowerModel()
	}
	if cfg.GuardC <= 0 {
		cfg.GuardC = 1
	}
	if cfg.RaiseTicks <= 0 {
		cfg.RaiseTicks = DefaultRaiseTicks
	}
	if cfg.HorizonSec <= 0 {
		cfg.HorizonSec = 2
	}
	return &ThermalGuard{cfg: cfg}, nil
}

// Name identifies the policy in traces.
func (tg *ThermalGuard) Name() string {
	mode := "pred"
	if tg.cfg.Reactive {
		mode = "react"
	}
	return fmt.Sprintf("TG-%s(%.0fC)", mode, tg.cfg.LimitC)
}

// Tick chooses the next p-state from the sensor temperature.
func (tg *ThermalGuard) Tick(info *machine.TickInfo) (int, []trace.Degradation) {
	if tg.cfg.Reactive {
		return tg.reactive(info), nil
	}
	return tg.predictive(info), nil
}

func (tg *ThermalGuard) reactive(info *machine.TickInfo) int {
	switch {
	case info.TempC >= tg.cfg.LimitC:
		tg.pendingUp = 0
		if info.PStateIndex > 0 {
			return info.PStateIndex - 1
		}
		return 0
	case info.TempC <= tg.cfg.LimitC-2:
		tg.pendingUp++
		if tg.pendingUp >= tg.cfg.RaiseTicks && info.PStateIndex < info.Table.Len()-1 {
			tg.pendingUp = 0
			return info.PStateIndex + 1
		}
		return info.PStateIndex
	default:
		tg.pendingUp = 0
		return info.PStateIndex
	}
}

// predictive converts thermal headroom into a power budget: the
// sustained power that settles at the guarded limit, plus a transient
// allowance for charging the remaining headroom over the horizon, then
// picks the highest p-state whose predicted power fits.
func (tg *ThermalGuard) predictive(info *machine.TickInfo) int {
	target := tg.cfg.LimitC - tg.cfg.GuardC
	budget := tg.cfg.Thermal.PowerForC(target)
	if head := target - info.TempC; head > 0 {
		budget += head * tg.cfg.Thermal.CapacitanceJC / tg.cfg.HorizonSec
	}
	dpc := info.Sample.DPC()
	want := 0
	for i := info.Table.Len() - 1; i >= 0; i-- {
		if tg.cfg.Model.EstimateAt(i, dpc, info.PState.FreqMHz) <= budget {
			want = i
			break
		}
	}
	switch {
	case want < info.PStateIndex:
		tg.pendingUp = 0
		return want
	case want > info.PStateIndex:
		tg.pendingUp++
		if tg.pendingUp >= tg.cfg.RaiseTicks {
			tg.pendingUp = 0
			return want
		}
		return info.PStateIndex
	default:
		tg.pendingUp = 0
		return info.PStateIndex
	}
}
