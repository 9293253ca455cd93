// Package control implements the paper's power-management policies as
// machine governors, each following the three-phase loop of §III
// (monitor → estimate/predict → control):
//
//   - PerformanceMaximizer (PM, §IV-A): highest frequency whose
//     predicted power stays under a runtime-adjustable limit, with a
//     0.5 W guardband, immediate down-shifts and a 100 ms up-shift
//     hysteresis.
//   - PowerSave (PS, §IV-B): lowest frequency whose predicted
//     performance stays above a floor relative to peak.
//   - StaticClock: the conventional fixed-frequency baseline.
//   - OnDemand: a Linux-ondemand-style utilization governor included
//     as an additional related-work baseline (Demand-Based Switching).
//
// All policies see only TickInfo — the counters a real deployment
// would have — never the platform's ground truth.
package control

import (
	"fmt"
	"math"

	"aapm/internal/machine"
	"aapm/internal/model"
	"aapm/internal/pstate"
	"aapm/internal/trace"
)

// StaticClock pins one p-state for the whole run — the paper's
// "static clocking" baseline (and, at the table extremes, its
// unconstrained-2GHz and maximum-savings-600MHz reference runs).
type StaticClock struct {
	Index int
	label string
}

// NewStaticClock pins p-state index i.
func NewStaticClock(i int, label string) *StaticClock {
	if label == "" {
		label = fmt.Sprintf("static[%d]", i)
	}
	return &StaticClock{Index: i, label: label}
}

// Name returns the policy label.
func (s *StaticClock) Name() string { return s.label }

// Tick always returns the pinned index; a pinned clock never degrades.
func (s *StaticClock) Tick(*machine.TickInfo) (int, []trace.Degradation) { return s.Index, nil }

// InitialIndex pins the run's starting p-state so a static run never
// spends its first interval at the platform default.
func (s *StaticClock) InitialIndex(int) int { return s.Index }

// PMConfig parameterizes a PerformanceMaximizer.
type PMConfig struct {
	// Model estimates power per p-state from DPC; nil selects the
	// published Table II model.
	Model *model.PowerModel
	// LimitW is the initial power limit.
	LimitW float64
	// GuardbandW is added to estimates before the limit comparison.
	// The zero value selects the paper's 0.5 W; pass a negative value
	// to disable the guardband entirely (ablation use).
	GuardbandW float64
	// RaiseTicks is the number of consecutive raise-indicating samples
	// required before shifting up; 0 selects the paper's 10 (100 ms of
	// 10 ms samples).
	RaiseTicks int
	// FeedbackGain, when positive, enables the measured-power feedback
	// extension the paper sketches as future work: a multiplicative
	// correction factor tracks measured/estimated power with this EMA
	// gain and scales subsequent estimates.
	FeedbackGain float64
	// DisableDPCProjection skips the paper's eq. 4 projection and
	// evaluates every candidate p-state at the observed decode rate.
	// Ablation use only: without the conservative down-projection the
	// power estimate for lower frequencies is too optimistic for
	// memory-bound work.
	DisableDPCProjection bool
	// Degrade enables graceful degradation under faulted inputs:
	// implausible counter samples (wrapped deltas, counts without
	// cycles) evaluate at the last good decode rate instead of
	// garbage, and while the power sensor is unreadable
	// (NaN/Inf/non-positive readings) the guardband widens by
	// DegradeGuardbandW and the feedback correction holds its last
	// good value. Each tick returns the degradation decisions it made,
	// and the tick engine logs them in trace.Run.
	Degrade bool
	// DegradeGuardbandW is the extra guardband applied while the
	// sensor is unreadable; 0 selects DefaultDegradeGuardbandW. Only
	// meaningful with Degrade.
	DegradeGuardbandW float64
}

// DefaultGuardbandW is the paper's 0.5 W estimation guardband.
const DefaultGuardbandW = 0.5

// DefaultRaiseTicks is the paper's 100 ms of consecutive 10 ms samples.
const DefaultRaiseTicks = 10

// DefaultDegradeGuardbandW is the extra guardband a degraded PM
// applies while its power sensor is unreadable: twice the normal
// guardband, covering the estimation error the measured-power loop
// can no longer observe.
const DefaultDegradeGuardbandW = 1.0

// sensorReadingOK reports whether a measured-power sample is usable:
// finite and positive (a live platform always draws power; NaN marks
// a dropped acquisition, zero a dead channel).
func sensorReadingOK(w float64) bool {
	return !math.IsNaN(w) && !math.IsInf(w, 0) && w > 0
}

// PMPolicy is the shared, immutable part of the PM policy: the
// configuration and the power model (eq. 2, the eq. 4 projection, the
// guardband and the hysteresis length). Its per-node state — limit,
// up-shift streak, feedback correction, degradation episodes and the
// decode rate last evaluated — is a machine.GovLane, so every node of
// one configuration can share one PMPolicy (a fleet builds one) while
// the tick engine keeps the nodes' state in contiguous lanes
// (machine.LanePolicy).
type PMPolicy struct {
	cfg PMConfig
	// class is the name every lane shares before its limit:
	// "PM", then "+fb" with feedback and "+dg" with degradation.
	class string
}

// NewPMPolicy validates cfg and returns a policy every node of that
// configuration can share. cfg.LimitW is per-node state, not policy:
// it is ignored here and set per node by Lane.
func NewPMPolicy(cfg PMConfig) (*PMPolicy, error) {
	cfg.LimitW = 0
	if cfg.Model == nil {
		cfg.Model = model.PaperPowerModel()
	}
	switch {
	case cfg.GuardbandW == 0:
		cfg.GuardbandW = DefaultGuardbandW
	case cfg.GuardbandW < 0:
		cfg.GuardbandW = 0
	}
	if cfg.RaiseTicks <= 0 {
		cfg.RaiseTicks = DefaultRaiseTicks
	}
	if cfg.RaiseTicks > math.MaxInt32 {
		return nil, fmt.Errorf("control: PM raise ticks %d exceed %d", cfg.RaiseTicks, math.MaxInt32)
	}
	if cfg.FeedbackGain < 0 || cfg.FeedbackGain > 1 {
		return nil, fmt.Errorf("control: PM feedback gain %g outside [0,1]", cfg.FeedbackGain)
	}
	if cfg.DegradeGuardbandW < 0 || math.IsNaN(cfg.DegradeGuardbandW) {
		return nil, fmt.Errorf("control: PM degrade guardband %g negative", cfg.DegradeGuardbandW)
	}
	if cfg.Degrade && cfg.DegradeGuardbandW == 0 {
		cfg.DegradeGuardbandW = DefaultDegradeGuardbandW
	}
	class := "PM"
	if cfg.FeedbackGain > 0 {
		class += "+fb"
	}
	if cfg.Degrade {
		class += "+dg"
	}
	return &PMPolicy{cfg: cfg, class: class}, nil
}

// Lane returns a fresh node state under the policy with power limit
// limitW.
func (p *PMPolicy) Lane(limitW float64) machine.GovLane {
	return machine.GovLane{LimitW: limitW, Corr: 1}
}

// GovLane.Flags bits: the degradation episodes in progress.
const (
	pmInDropout uint8 = 1 << iota // sensor unreadable, guardband widened
	pmInHold                      // counters implausible, DPC held
)

// TickLane events, in the order a tick notes them.
const (
	pmCountersRestored uint8 = 1 << iota
	pmHoldDPC
	pmSensorDropout
	pmSensorRestored
)

// LaneName identifies the policy in traces.
func (p *PMPolicy) LaneName(st *machine.GovLane) string {
	return fmt.Sprintf("%s(%.1fW)", p.class, st.LimitW)
}

// NameClass names the policy's naming rule (machine.LanePolicy): its
// names differ from another PM's only in the options they show.
func (p *PMPolicy) NameClass() string { return p.class }

// guardbandW is the guardband a lane's most recent tick applied:
// cfg.GuardbandW, widened by cfg.DegradeGuardbandW during a sensor
// dropout.
func (p *PMPolicy) guardbandW(st *machine.GovLane) float64 {
	gb := p.cfg.GuardbandW
	if st.Flags&pmInDropout != 0 {
		gb += p.cfg.DegradeGuardbandW
	}
	return gb
}

// TickLane chooses the highest p-state whose corrected power estimate,
// plus guardband, fits the lane's limit. Down-shifts apply
// immediately; up-shifts wait for RaiseTicks consecutive supporting
// samples.
//
// With cfg.Degrade, faulted inputs degrade the policy gracefully
// instead of corrupting it: an implausible counter sample evaluates
// at the last good decode rate (st.DPC, which under Degrade only ever
// holds a good rate), and while the sensor is unreadable the
// guardband widens by cfg.DegradeGuardbandW and the feedback
// correction freezes at its last good value.
//
// It reads only the info fields machine.LanePolicy names (Sample,
// MeasuredPowerW, PStateIndex, PState and Table) and writes only st.
func (p *PMPolicy) TickLane(st *machine.GovLane, info *machine.TickInfo) (int, uint8) {
	cfg := &p.cfg
	var ev uint8
	dpc := info.Sample.DPC()
	if cfg.Degrade {
		if !info.Sample.Implausible() && !math.IsNaN(dpc) && !math.IsInf(dpc, 0) && dpc >= 0 {
			if st.Flags&pmInHold != 0 {
				st.Flags &^= pmInHold
				ev |= pmCountersRestored
			}
		} else {
			dpc = st.DPC
			if st.Flags&pmInHold == 0 {
				st.Flags |= pmInHold
				ev |= pmHoldDPC
			}
		}
	}
	sensorOK := sensorReadingOK(info.MeasuredPowerW)
	if cfg.Degrade && !sensorOK {
		if st.Flags&pmInDropout == 0 {
			st.Flags |= pmInDropout
			ev |= pmSensorDropout
		}
	} else if st.Flags&pmInDropout != 0 {
		st.Flags &^= pmInDropout
		ev |= pmSensorRestored
	}
	gb := p.guardbandW(st)
	if cfg.FeedbackGain > 0 && sensorOK {
		est := st.Corr * cfg.Model.Estimate(info.PStateIndex, dpc)
		if est > 0 {
			g := cfg.FeedbackGain
			st.Corr *= 1 + g*(info.MeasuredPowerW/est-1)
			if st.Corr < 0.5 {
				st.Corr = 0.5
			}
			if st.Corr > 2 {
				st.Corr = 2
			}
		}
	}
	st.DPC = dpc
	want := 0
	for i := info.Table.Len() - 1; i >= 0; i-- {
		var est float64
		if cfg.DisableDPCProjection {
			est = cfg.Model.Estimate(i, dpc)
		} else {
			est = cfg.Model.EstimateAt(i, dpc, info.PState.FreqMHz)
		}
		est = st.Corr*est + gb
		if est <= st.LimitW {
			want = i
			break
		}
	}
	switch {
	case want < info.PStateIndex:
		st.PendingUp = 0
		return want, ev
	case want > info.PStateIndex:
		st.PendingUp++
		if int(st.PendingUp) >= cfg.RaiseTicks {
			st.PendingUp = 0
			return want, ev
		}
		return info.PStateIndex, ev
	default:
		st.PendingUp = 0
		return info.PStateIndex, ev
	}
}

// LaneDegradations renders the events of the tick that just updated
// st. Events carry no timestamp; the engine stamps virtual time.
func (p *PMPolicy) LaneDegradations(st *machine.GovLane, ev uint8) []trace.Degradation {
	var ds []trace.Degradation
	if ev&pmCountersRestored != 0 {
		ds = append(ds, trace.Degradation{Source: "pm", Kind: "counters-restored"})
	}
	if ev&pmHoldDPC != 0 {
		ds = append(ds, trace.Degradation{Source: "pm", Kind: "hold-dpc",
			Detail: fmt.Sprintf("implausible sample; evaluating at last good DPC %.3f", st.DPC)})
	}
	if ev&pmSensorDropout != 0 {
		ds = append(ds, trace.Degradation{Source: "pm", Kind: "sensor-dropout",
			Detail: fmt.Sprintf("guardband widened to %.2f W; feedback frozen", p.guardbandW(st))})
	}
	if ev&pmSensorRestored != 0 {
		ds = append(ds, trace.Degradation{Source: "pm", Kind: "sensor-restored"})
	}
	return ds
}

// LaneDesireW returns the power limit a lane would need to run the
// table's top p-state for the given recent decode rate, including the
// guardband and (when feedback is enabled) the learned measurement
// correction. Budget coordinators use it as a node's demand signal.
func (p *PMPolicy) LaneDesireW(st *machine.GovLane, table *pstate.Table, dpc float64) float64 {
	top := table.Len() - 1
	return st.Corr*p.cfg.Model.Estimate(top, dpc) + p.cfg.GuardbandW
}

// PerformanceMaximizer implements the PM policy for one node: a handle
// onto one GovLane under its PMPolicy (machine.LaneGovernor). On
// its own it owns its lane; as a batch or Session governor the engine
// rebinds it to the batch's lane, and its methods then act on the
// state the engine steps.
type PerformanceMaximizer struct {
	pol *PMPolicy
	st  *machine.GovLane
	own machine.GovLane
}

// NewPerformanceMaximizer builds a PM with the given configuration.
func NewPerformanceMaximizer(cfg PMConfig) (*PerformanceMaximizer, error) {
	if cfg.LimitW <= 0 {
		return nil, fmt.Errorf("control: PM needs a positive power limit, got %g", cfg.LimitW)
	}
	pol, err := NewPMPolicy(cfg)
	if err != nil {
		return nil, err
	}
	pm := &PerformanceMaximizer{pol: pol, own: pol.Lane(cfg.LimitW)}
	pm.st = &pm.own
	return pm, nil
}

// Name identifies the policy in traces.
func (pm *PerformanceMaximizer) Name() string { return pm.pol.LaneName(pm.st) }

// Policy returns the PM's shared policy (machine.LaneGovernor).
func (pm *PerformanceMaximizer) Policy() machine.LanePolicy { return pm.pol }

// BindLane moves the PM's state into *l (machine.LaneGovernor).
func (pm *PerformanceMaximizer) BindLane(l *machine.GovLane) {
	*l = *pm.st
	pm.st = l
}

// SetLimit changes the power limit, effective at the next tick — the
// simulation analogue of the SIGUSR1/SIGUSR2 runtime limit changes the
// prototype accepts. Like every write from outside the policy it goes
// through a GovLane method, which un-settles a lane the engine steps.
func (pm *PerformanceMaximizer) SetLimit(w float64) { pm.st.SetLimit(w) }

// BypassHysteresis arms the next tick to raise immediately if its
// estimate permits, instead of waiting out the full RaiseTicks streak.
// A caller that knows the workload has switched regimes calls it,
// making the conservative streak requirement moot.
func (pm *PerformanceMaximizer) BypassHysteresis() {
	pm.st.SetPendingUp(int32(pm.pol.cfg.RaiseTicks - 1))
}

// Limit returns the active power limit.
func (pm *PerformanceMaximizer) Limit() float64 { return pm.st.LimitW }

// Tick is PMPolicy.TickLane over the PM's lane, returning the tick's
// degradation events rendered (nil for none).
func (pm *PerformanceMaximizer) Tick(info *machine.TickInfo) (int, []trace.Degradation) {
	want, ev := pm.pol.TickLane(pm.st, info)
	return want, pm.pol.LaneDegradations(pm.st, ev)
}

// EffectiveGuardbandW returns the guardband the most recent tick
// applied — cfg.GuardbandW, widened by cfg.DegradeGuardbandW while a
// degraded PM's sensor is unreadable.
func (pm *PerformanceMaximizer) EffectiveGuardbandW() float64 { return pm.pol.guardbandW(pm.st) }

// LastEvalDPC returns the decode rate the most recent tick evaluated
// the power model at (the held last-good value during a counter hold).
func (pm *PerformanceMaximizer) LastEvalDPC() float64 { return pm.st.DPC }

// BudgetDesireW returns the power limit this PM would need to run the
// platform's top p-state for the given recent decode rate
// (PMPolicy.LaneDesireW).
func (pm *PerformanceMaximizer) BudgetDesireW(table *pstate.Table, dpc float64) float64 {
	return pm.pol.LaneDesireW(pm.st, table, dpc)
}

// PSConfig parameterizes a PowerSave policy.
type PSConfig struct {
	// Perf is the IPC projection model; the zero value selects the
	// published eq. 3 parameters (threshold 1.21, exponent 0.81).
	Perf model.PerfModel
	// Floor is the minimum acceptable performance relative to peak
	// (e.g. 0.8 allows a 20% slowdown).
	Floor float64
	// Degrade enables graceful degradation when counters go stale: a
	// zero or implausible sample arriving while the workload was
	// recently busy replays the last good sample for up to StaleTicks
	// intervals (hold), after which PS abandons the online projection
	// and falls back to the offline model — the lowest frequency that
	// meets the floor for a core-bound workload, a frequency that
	// satisfies the floor for every memory-boundedness. Zero samples
	// with no busy history still mean idle (minimum frequency).
	Degrade bool
	// StaleTicks is how many consecutive stale intervals PS holds the
	// last good projection before the offline fallback; 0 selects
	// DefaultStaleTicks. Only meaningful with Degrade.
	StaleTicks int
}

// DefaultStaleTicks is how long a degraded PS trusts a held projection
// (5 intervals = 50 ms) before falling back to the offline model.
const DefaultStaleTicks = 5

// PSMode labels the decision path a degraded PowerSave tick took.
type PSMode int

// PowerSave decision modes, reported by LastMode.
const (
	// PSNormal projects from the current (good) sample.
	PSNormal PSMode = iota
	// PSIdle saw a zero sample with no recent busy history.
	PSIdle
	// PSHold replayed the last good sample during a stale episode.
	PSHold
	// PSOffline uses the offline core-bound fallback after a stale
	// episode outlasted StaleTicks.
	PSOffline
)

// String returns the mode's lowercase name.
func (m PSMode) String() string {
	switch m {
	case PSNormal:
		return "normal"
	case PSIdle:
		return "idle"
	case PSHold:
		return "hold"
	case PSOffline:
		return "offline"
	}
	return fmt.Sprintf("psmode(%d)", int(m))
}

// PowerSave implements the PS policy: run as slow as the performance
// floor permits, even at full load.
type PowerSave struct {
	cfg PSConfig

	// Graceful-degradation state (cfg.Degrade).
	goodIPC  float64
	goodDCU  float64
	goodFrom int
	haveGood bool
	stale    int
	mode     PSMode
}

// NewPowerSave builds a PS with the given configuration.
func NewPowerSave(cfg PSConfig) (*PowerSave, error) {
	if cfg.Perf == (model.PerfModel{}) {
		cfg.Perf = model.PaperPerfModel()
	}
	if err := cfg.Perf.Validate(); err != nil {
		return nil, err
	}
	if cfg.Floor <= 0 || cfg.Floor > 1 {
		return nil, fmt.Errorf("control: PS floor %g outside (0,1]", cfg.Floor)
	}
	if cfg.StaleTicks < 0 {
		return nil, fmt.Errorf("control: PS stale ticks %d negative", cfg.StaleTicks)
	}
	if cfg.Degrade && cfg.StaleTicks == 0 {
		cfg.StaleTicks = DefaultStaleTicks
	}
	return &PowerSave{cfg: cfg}, nil
}

// Name identifies the policy in traces.
func (ps *PowerSave) Name() string {
	suffix := ""
	if ps.cfg.Degrade {
		suffix = "+dg"
	}
	return fmt.Sprintf("PS%s(%.0f%%,e=%.2f)", suffix, ps.cfg.Floor*100, ps.cfg.Perf.Exponent)
}

// Floor returns the configured performance floor.
func (ps *PowerSave) Floor() float64 { return ps.cfg.Floor }

// LastMode returns the decision path the most recent tick took.
func (ps *PowerSave) LastMode() PSMode { return ps.mode }

// psEvent is a PowerSave degradation event; the engine stamps the
// time.
func psEvent(kind, detail string) trace.Degradation {
	return trace.Degradation{Source: "ps", Kind: kind, Detail: detail}
}

// sampleUsable reports whether the tick's counter-derived rates can
// feed the projection model.
func sampleUsable(ipc, dcu float64) bool {
	return !math.IsNaN(ipc) && !math.IsInf(ipc, 0) && ipc >= 0 &&
		!math.IsNaN(dcu) && !math.IsInf(dcu, 0) && dcu >= 0
}

// Tick predicts throughput (IPC*f) at every p-state from the current
// sample and picks the lowest frequency whose predicted performance
// clears Floor x the predicted peak performance.
//
// With cfg.Degrade, stale counters (zero or implausible samples while
// recently busy) replay the last good sample for up to StaleTicks
// intervals, then fall back to the offline core-bound model; the tick
// that starts or ends an episode returns it as a degradation.
func (ps *PowerSave) Tick(info *machine.TickInfo) (int, []trace.Degradation) {
	var degr []trace.Degradation
	ipc := info.Sample.IPC()
	dcu := info.Sample.DCUPerInst()
	from := info.PState.FreqMHz
	usable := sampleUsable(ipc, dcu) && !info.Sample.Implausible()
	if ps.cfg.Degrade {
		switch {
		case usable && ipc > 0:
			// Good busy sample: remember it and project normally.
			ps.goodIPC, ps.goodDCU, ps.goodFrom = ipc, dcu, from
			ps.haveGood = true
			if ps.stale > 0 {
				degr = append(degr, psEvent("counters-restored", ""))
			}
			ps.stale = 0
			ps.mode = PSNormal
		case !ps.haveGood:
			// Zero (or garbage) sample with no busy history: idle.
			ps.mode = PSIdle
			return 0, nil
		default:
			// Stale episode: hold the last good projection, then
			// abandon the online model.
			ps.stale++
			if ps.stale == 1 {
				degr = append(degr, psEvent("stale-counters", fmt.Sprintf("holding projection from %.3f IPC @%d MHz", ps.goodIPC, ps.goodFrom)))
			}
			if ps.stale > ps.cfg.StaleTicks {
				if ps.stale == ps.cfg.StaleTicks+1 {
					degr = append(degr, psEvent("offline-fallback", fmt.Sprintf("stale for %d ticks; using offline core-bound floor", ps.stale)))
				}
				ps.mode = PSOffline
				return ps.offlineIndex(info.Table), degr
			}
			ps.mode = PSHold
			ipc, dcu, from = ps.goodIPC, ps.goodDCU, ps.goodFrom
		}
	} else {
		ps.mode = PSNormal
		if !usable {
			// Garbage rates would poison the projection; stand still.
			return info.PStateIndex, nil
		}
		if ipc == 0 {
			// Idle interval: any frequency meets the floor; save maximally.
			ps.mode = PSIdle
			return 0, nil
		}
	}
	maxIdx := info.Table.Len() - 1
	peak := ps.cfg.Perf.ProjectPerf(ipc, dcu, from, info.Table.At(maxIdx).FreqMHz)
	if !(peak > 0) {
		// Covers zero, negative and NaN projections alike.
		return info.PStateIndex, degr
	}
	// The relative tolerance keeps exact-boundary states (e.g. 1600 MHz
	// for an 80% floor on a 2000 MHz part) on the feasible side of
	// floating-point rounding.
	need := ps.cfg.Floor * peak * (1 - 1e-9)
	for i := 0; i <= maxIdx; i++ {
		if ps.cfg.Perf.ProjectPerf(ipc, dcu, from, info.Table.At(i).FreqMHz) >= need {
			return i, degr
		}
	}
	return maxIdx, degr
}

// offlineIndex is the degraded fallback when counters have been stale
// too long: the lowest p-state whose frequency ratio alone meets the
// floor. A core-bound workload's performance scales linearly with
// frequency — the worst case — so f >= Floor*fmax satisfies the floor
// for every memory-boundedness.
func (ps *PowerSave) offlineIndex(t *pstate.Table) int {
	fmax := float64(t.Max().FreqMHz)
	for i := 0; i < t.Len(); i++ {
		if float64(t.At(i).FreqMHz) >= ps.cfg.Floor*fmax*(1-1e-9) {
			return i
		}
	}
	return t.Len() - 1
}

// OnDemand approximates the Linux ondemand governor: jump to maximum
// frequency when utilization exceeds the up-threshold, otherwise pick
// the lowest frequency that keeps utilization at the threshold. With
// the paper's fully loaded SPEC workloads it pins the maximum state —
// exactly the "saving energy only during low utilization is
// insufficient" behaviour PS improves on.
type OnDemand struct {
	// UpThreshold is the utilization that triggers max frequency;
	// 0 selects the classic 0.8.
	UpThreshold float64
}

// Name identifies the policy in traces.
func (o *OnDemand) Name() string { return "ondemand" }

func (o *OnDemand) threshold() float64 {
	if o.UpThreshold <= 0 || o.UpThreshold > 1 {
		return 0.8
	}
	return o.UpThreshold
}

// Tick computes utilization as busy cycles over interval capacity.
func (o *OnDemand) Tick(info *machine.TickInfo) (int, []trace.Degradation) {
	capacity := info.PState.FreqHz() * info.Interval.Seconds()
	if capacity <= 0 {
		return info.PStateIndex, nil
	}
	util := info.Sample.Cycles() / capacity
	if util > 1 {
		util = 1
	}
	th := o.threshold()
	if util >= th {
		return info.Table.Len() - 1, nil
	}
	// Choose the lowest frequency that would run at ~threshold
	// utilization for the same busy-cycle demand.
	demand := util * float64(info.PState.FreqMHz)
	for i := 0; i < info.Table.Len(); i++ {
		if float64(info.Table.At(i).FreqMHz)*th >= demand {
			return i, nil
		}
	}
	return info.Table.Len() - 1, nil
}
