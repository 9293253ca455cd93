// Package power computes the simulated platform's ground-truth
// processor power.
//
// The reproduction cannot measure a real Pentium M, so this package
// plays the role of the silicon: given the active p-state and the
// interval's architectural activity it produces the "true" power the
// sense-resistor chain (package sensor) then measures.
//
// The ground truth is deliberately richer than the paper's estimation
// model (a per-p-state line in DPC): it adds activity terms the
// estimator cannot see — L2 traffic, bus traffic, and clock-gated
// stall cycles. Those hidden terms are what make the estimation
// problem real: they are the in-simulation source of the galgel-style
// underestimates and the per-workload spread of Figure 1.
package power

import (
	"fmt"
	"math"

	"aapm/internal/counters"
	"aapm/internal/paperref"
	"aapm/internal/pstate"
)

// Coefficients are the ground-truth power terms at one p-state.
// Power (watts) for an interval with activity rates DPC, L2PC, MemPC,
// DCU (all per-cycle) is:
//
//	P = AlphaDPC*DPC + Base + GammaL2*L2PC + DeltaMem*MemPC - EpsGate*DCU
//
// Base folds together idle clock tree, leakage at the state's voltage
// and the un-gated pipeline front end. EpsGate models clock gating
// recovering power during data-cache stall cycles.
type Coefficients struct {
	AlphaDPC float64
	Base     float64
	GammaL2  float64
	DeltaMem float64
	EpsGate  float64
}

// Eval returns the power in watts for the given activity rates.
func (c Coefficients) Eval(dpc, l2pc, mempc, dcu float64) float64 {
	p := c.AlphaDPC*dpc + c.Base + c.GammaL2*l2pc + c.DeltaMem*mempc - c.EpsGate*dcu
	if p < 0 {
		p = 0
	}
	return p
}

// GroundTruth maps each p-state of a table to its true coefficients.
type GroundTruth struct {
	table  *pstate.Table
	coeffs []Coefficients
}

// The ground truth uses the paper's published Table II (alpha, beta)
// pairs as its DPC-linear core, so a correctly implemented trainer
// recovers approximately those values when it fits the estimation
// model on the MS-Loops data.

// hidden-term magnitudes at the 2000 MHz reference point, in watts per
// unit per-cycle rate. They scale with V^2*f like dynamic power.
// refEpsGate is kept small relative to refGammaL2: gating correlates
// negatively with decode rate across workloads, so a large value would
// tilt any DPC-linear fit of the training data well away from the
// Table II reference the trainer is expected to recover.
const (
	refGammaL2  = 6.0
	refDeltaMem = 10.0
	refEpsGate  = 0.8
)

// PentiumM755Truth returns the ground truth for the paper's platform.
func PentiumM755Truth() *GroundTruth {
	t := pstate.PentiumM755()
	gt, err := NewGroundTruth(t)
	if err != nil {
		panic("power: built-in ground truth invalid: " + err.Error())
	}
	return gt
}

// NewGroundTruth builds a ground truth for the given table. Every
// state's frequency must appear in the Table II reference data.
func NewGroundTruth(t *pstate.Table) (*GroundTruth, error) {
	ref := t.Max()
	refScale := ref.VoltageV * ref.VoltageV * float64(ref.FreqMHz)
	coeffs := make([]Coefficients, t.Len())
	for i := 0; i < t.Len(); i++ {
		p := t.At(i)
		ab, ok := paperref.TableIIByFreq(p.FreqMHz)
		if !ok {
			return nil, fmt.Errorf("power: no reference coefficients for %d MHz", p.FreqMHz)
		}
		s := p.VoltageV * p.VoltageV * float64(p.FreqMHz) / refScale
		coeffs[i] = Coefficients{
			AlphaDPC: ab.Alpha,
			Base:     ab.Beta,
			GammaL2:  refGammaL2 * s,
			DeltaMem: refDeltaMem * s,
			EpsGate:  refEpsGate * s,
		}
	}
	return &GroundTruth{table: t, coeffs: coeffs}, nil
}

// NewInterpolatedGroundTruth builds a ground truth for a table whose
// states need not match Table II's frequencies or voltages: the
// reference coefficients are interpolated in frequency and the
// voltage-sensitive terms rescaled by (V/Vref)², the CMOS dynamic
// dependence of eq. 1. It backs synthetic sibling platforms (e.g. the
// low-voltage 738) used to demonstrate model platform-specificity.
func NewInterpolatedGroundTruth(t *pstate.Table) (*GroundTruth, error) {
	ref := pstate.PentiumM755().Max()
	refScale := ref.VoltageV * ref.VoltageV * float64(ref.FreqMHz)
	coeffs := make([]Coefficients, t.Len())
	for i := 0; i < t.Len(); i++ {
		p := t.At(i)
		alpha, beta, vref, err := interpTableII(p.FreqMHz)
		if err != nil {
			return nil, err
		}
		vr := p.VoltageV / vref
		s := p.VoltageV * p.VoltageV * float64(p.FreqMHz) / refScale
		coeffs[i] = Coefficients{
			AlphaDPC: alpha * vr * vr,
			Base:     beta * vr * vr,
			GammaL2:  refGammaL2 * s,
			DeltaMem: refDeltaMem * s,
			EpsGate:  refEpsGate * s,
		}
	}
	return &GroundTruth{table: t, coeffs: coeffs}, nil
}

// interpTableII linearly interpolates Table II's alpha, beta and
// voltage at an arbitrary frequency within the reference range.
func interpTableII(freqMHz int) (alpha, beta, voltage float64, err error) {
	rows := paperref.TableII
	if freqMHz < rows[0].FreqMHz || freqMHz > rows[len(rows)-1].FreqMHz {
		return 0, 0, 0, fmt.Errorf("power: frequency %d MHz outside the reference range", freqMHz)
	}
	for i := 1; i < len(rows); i++ {
		lo, hi := rows[i-1], rows[i]
		if freqMHz > hi.FreqMHz {
			continue
		}
		frac := float64(freqMHz-lo.FreqMHz) / float64(hi.FreqMHz-lo.FreqMHz)
		return lo.Alpha + frac*(hi.Alpha-lo.Alpha),
			lo.Beta + frac*(hi.Beta-lo.Beta),
			lo.VoltageV + frac*(hi.VoltageV-lo.VoltageV),
			nil
	}
	last := rows[len(rows)-1]
	return last.Alpha, last.Beta, last.VoltageV, nil
}

// Table returns the p-state table the ground truth covers.
func (g *GroundTruth) Table() *pstate.Table { return g.table }

// Coefficients returns the true coefficients of p-state index i.
func (g *GroundTruth) Coefficients(i int) Coefficients { return g.coeffs[i] }

// Power returns the true average power over an interval with the given
// counter activity, at p-state index i.
func (g *GroundTruth) Power(i int, s counters.Sample) float64 {
	return g.coeffs[i].Eval(s.DPC(), s.L2PC(), s.MemPC(), s.DCU())
}

// PowerFromRates returns the true power given raw activity rates; it is
// the same computation as Power without requiring a counter sample.
func (g *GroundTruth) PowerFromRates(i int, dpc, l2pc, mempc, dcu float64) float64 {
	return g.coeffs[i].Eval(dpc, l2pc, mempc, dcu)
}

// Energy accumulates joules from a sequence of (power, duration)
// contributions, the way the paper integrates 10 ms power samples.
// The sum starts at +0, and a sum that starts at +0 is never -0, so
// adding +0 leaves its bits as they are.
type Energy struct {
	joules float64
}

// Joules returns the energy Add adds for watts drawn over seconds: the
// product, rounded on its own, or +0 when Add skips the contribution
// (negative seconds, NaN watts). The conversion pins the rounding: Go
// may fuse a product into the addition that consumes it (arm64's
// FMADDD rounds once) unless the product is converted explicitly.
func Joules(watts, seconds float64) float64 {
	if seconds < 0 || math.IsNaN(watts) {
		return 0
	}
	return float64(watts * seconds)
}

// Add accumulates watts over seconds.
func (e *Energy) Add(watts, seconds float64) {
	e.joules += Joules(watts, seconds)
}

// Plus returns e with j joules added, j being a value Joules returned:
// k Plus calls leave the bits of k Adds of Joules' inputs, and the
// product is computed once. A value method, so a loop keeps the sum in
// a register.
func (e Energy) Plus(j float64) Energy {
	e.joules += j
	return e
}

// Joules returns the accumulated energy.
func (e *Energy) Joules() float64 { return e.joules }
