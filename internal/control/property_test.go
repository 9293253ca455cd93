package control

import (
	"math"
	"math/rand"
	"testing"

	"aapm/internal/model"
	"aapm/internal/pstate"
)

// Property: PM never selects a p-state whose predicted power (with
// the feedback correction and the tick's effective guardband) exceeds
// the limit — except index 0, the forced floor when nothing fits.
// Starting each trial at the top state makes the returned index the
// selection loop's own choice (down-shifts are immediate; up-shift
// hysteresis can't mask an infeasible state from above).
func TestPropertyPMEstimateNeverExceedsLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tab := pstate.PentiumM755()
	pow := model.PaperPowerModel()
	top := tab.Len() - 1
	for trial := 0; trial < 3000; trial++ {
		limit := 6 + rng.Float64()*14
		cfg := PMConfig{LimitW: limit}
		if rng.Intn(2) == 0 {
			cfg.FeedbackGain = rng.Float64()
		}
		if rng.Intn(2) == 0 {
			cfg.Degrade = true
		}
		pm, err := NewPerformanceMaximizer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cur := top
		for step := 0; step < 8; step++ {
			dpc := rng.Float64() * 2.5
			meas := 5 + rng.Float64()*20
			switch rng.Intn(6) {
			case 0:
				meas = math.NaN()
			case 1:
				meas = 0
			}
			info := tick(tab.At(cur).FreqMHz, dpc, dpc, 0, meas)
			got := decide(pm, info)
			if got < 0 || got > top {
				t.Fatalf("trial %d: index %d out of range", trial, got)
			}
			if got > cur {
				// Hysteresis defers up-shifts; the state actually adopted
				// is cur, which the previous iteration already validated.
				got = cur
			}
			if got > 0 {
				est := pm.st.Corr*pow.EstimateAt(got, pm.LastEvalDPC(), tab.At(cur).FreqMHz) + pm.EffectiveGuardbandW()
				if est > limit+1e-9 {
					t.Fatalf("trial %d step %d: selected state %d with estimate %.4f W over limit %.4f W (dpc %.3f, degrade %v)",
						trial, step, got, est, limit, dpc, cfg.Degrade)
				}
			}
			cur = got
		}
	}
}

// Property: PS never picks a p-state below the performance floor when
// a feasible one exists — the chosen state's projected performance
// clears floor x projected peak (up to the documented boundary
// tolerance), or the chosen state is the maximum (nothing feasible).
func TestPropertyPSNeverBelowFloorWhenFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := pstate.PentiumM755()
	maxIdx := tab.Len() - 1
	for trial := 0; trial < 3000; trial++ {
		floor := 0.05 + 0.95*rng.Float64()
		perf := model.PaperPerfModel()
		if rng.Intn(2) == 0 {
			perf.Exponent = model.PaperExponentAlt
		}
		ps, err := NewPowerSave(PSConfig{Floor: floor, Perf: perf, Degrade: rng.Intn(2) == 0})
		if err != nil {
			t.Fatal(err)
		}
		cur := rng.Intn(tab.Len())
		ipc := 0.05 + rng.Float64()*2.5
		dcu := rng.Float64() * 4
		info := tick(tab.At(cur).FreqMHz, ipc, ipc, dcu/ipc, 12)
		// Recompute the rates the sample actually carries (integer
		// counter truncation), so the assertion uses PS's own inputs.
		sIPC := info.Sample.IPC()
		sDCU := info.Sample.DCUPerInst()
		got := decide(ps, info)
		if got < 0 || got > maxIdx {
			t.Fatalf("trial %d: index %d out of range", trial, got)
		}
		if sIPC == 0 || got == maxIdx {
			continue
		}
		from := tab.At(cur).FreqMHz
		peak := perf.ProjectPerf(sIPC, sDCU, from, tab.At(maxIdx).FreqMHz)
		have := perf.ProjectPerf(sIPC, sDCU, from, tab.At(got).FreqMHz)
		if have < floor*peak*(1-1e-9) {
			t.Fatalf("trial %d: state %d delivers %.5f of peak %.5f, below floor %.3f (ipc %.3f dcu %.3f from %d)",
				trial, got, have/peak, peak, floor, sIPC, sDCU, from)
		}
	}
}

// Property: the offline fallback state itself always meets the floor
// (its frequency ratio alone clears it), so a degraded PS that lost
// its counters still honors the contract.
func TestPropertyPSOfflineFallbackMeetsFloor(t *testing.T) {
	tab := pstate.PentiumM755()
	fmax := float64(tab.Max().FreqMHz)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1000; trial++ {
		floor := 0.05 + 0.95*rng.Float64()
		ps, err := NewPowerSave(PSConfig{Floor: floor, Degrade: true})
		if err != nil {
			t.Fatal(err)
		}
		idx := ps.offlineIndex(tab)
		if ratio := float64(tab.At(idx).FreqMHz) / fmax; ratio < floor*(1-1e-9) {
			t.Fatalf("floor %.3f: offline state %d MHz is only %.3f of peak", floor, tab.At(idx).FreqMHz, ratio)
		}
	}
}
