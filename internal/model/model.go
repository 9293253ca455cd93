// Package model implements the paper's online estimation models — the
// core of application-aware power management:
//
//   - a per-p-state linear power model driven by the decoded
//     instructions per cycle (DPC) counter (paper eq. 2, Table II),
//     fitted to minimize absolute error on the MS-Loops training set;
//   - the conservative DPC projection across p-states (eq. 4);
//   - the two-class performance model (eq. 3) that classifies a
//     sample core- or memory-bound by its DCU/IPC ratio and scales
//     IPC by (f/f')^e for memory-bound samples.
//
// Package trainer regenerates all parameters from simulated
// microbenchmark runs; the constructors here provide the paper's
// published values as defaults.
package model

import (
	"fmt"
	"math"
	"sync"

	"aapm/internal/paperref"
	"aapm/internal/pstate"
	"aapm/internal/stats"
)

// PowerModel estimates processor power from DPC, one line per p-state
// (paper eq. 2: Power = alpha*DPC + beta).
type PowerModel struct {
	table *pstate.Table
	fits  []stats.Linear
}

// NewPowerModel wraps per-p-state fits (index-aligned with the table).
func NewPowerModel(t *pstate.Table, fits []stats.Linear) (*PowerModel, error) {
	if len(fits) != t.Len() {
		return nil, fmt.Errorf("model: %d fits for %d p-states", len(fits), t.Len())
	}
	f := make([]stats.Linear, len(fits))
	copy(f, fits)
	return &PowerModel{table: t, fits: f}, nil
}

// PaperPowerModel returns the published Table II coefficients for the
// Pentium M 755 table (from package paperref). The model is built once
// and shared by every caller: a PowerModel is immutable (as is its
// p-state table), so a 10⁵-node fleet of PMs reads one model instead
// of scattering a private copy per node across the heap.
func PaperPowerModel() *PowerModel { return paperPowerModel() }

var paperPowerModel = sync.OnceValue(func() *PowerModel {
	t := pstate.PentiumM755()
	fits := make([]stats.Linear, t.Len())
	for i := 0; i < t.Len(); i++ {
		r, ok := paperref.TableIIByFreq(t.At(i).FreqMHz)
		if !ok {
			panic(fmt.Sprintf("model: no Table II row for %d MHz", t.At(i).FreqMHz))
		}
		fits[i] = stats.Linear{Alpha: r.Alpha, Beta: r.Beta}
	}
	m, err := NewPowerModel(t, fits)
	if err != nil {
		panic("model: paper power model invalid: " + err.Error())
	}
	return m
})

// Table returns the model's p-state table.
func (m *PowerModel) Table() *pstate.Table { return m.table }

// Coefficients returns the fit for p-state index i.
func (m *PowerModel) Coefficients(i int) stats.Linear { return m.fits[i] }

// Estimate returns the predicted power (watts) at p-state index i for
// decode rate dpc.
func (m *PowerModel) Estimate(i int, dpc float64) float64 {
	return m.fits[i].Eval(dpc)
}

// ProjectDPC applies the paper's eq. 4: the conservative decode-rate
// projection from frequency f to f' (both MHz). Lowering frequency
// scales DPC up by f/f' (exact for fully memory-bound work, an
// overestimate otherwise — safe for power limiting); raising frequency
// keeps DPC (exact for core-bound work, again an overestimate).
func ProjectDPC(dpc float64, fromMHz, toMHz int) float64 {
	if toMHz <= fromMHz && toMHz > 0 {
		return dpc * float64(fromMHz) / float64(toMHz)
	}
	return dpc
}

// EstimateAt projects the decode rate observed at fromMHz to p-state
// index i and evaluates the power model there — the PM control loop's
// inner computation.
func (m *PowerModel) EstimateAt(i int, dpc float64, fromMHz int) float64 {
	return m.Estimate(i, ProjectDPC(dpc, fromMHz, m.table.At(i).FreqMHz))
}

// Performance-model constants from the paper (package paperref holds
// the authoritative values).
const (
	// PaperDCUThreshold is eq. 3's memory-boundedness threshold on
	// DCU miss-outstanding cycles per instruction.
	PaperDCUThreshold = paperref.DCUThreshold
	// PaperExponent is eq. 3's frequency-dependence exponent, the
	// primary local minimum of the training error.
	PaperExponent = paperref.Exponent
	// PaperExponentAlt is the second local minimum (0.59) the authors
	// switch to after observing art/mcf floor violations (§IV-B.2).
	PaperExponentAlt = paperref.ExponentAlt
)

// PerfModel is the two-class IPC projection model of eq. 3.
type PerfModel struct {
	// Threshold on DCU/IPC separating core- from memory-bound.
	Threshold float64
	// Exponent of the (f/f') scaling for memory-bound samples.
	Exponent float64
}

// PaperPerfModel returns eq. 3 with the published 1.21 / 0.81
// parameters.
func PaperPerfModel() PerfModel {
	return PerfModel{Threshold: PaperDCUThreshold, Exponent: PaperExponent}
}

// MemoryBound classifies a sample by its DCU/IPC ratio.
func (m PerfModel) MemoryBound(dcuPerInst float64) bool {
	return dcuPerInst >= m.Threshold
}

// ProjectIPC predicts IPC at frequency toMHz given the observed ipc
// and dcuPerInst at fromMHz (eq. 3). Unphysical inputs — NaN, Inf or
// negative rates, non-positive frequencies — project to 0 rather than
// poisoning downstream comparisons (every NaN comparison is false, so
// a NaN projection would silently disable a governor's floor check).
func (m PerfModel) ProjectIPC(ipc, dcuPerInst float64, fromMHz, toMHz int) float64 {
	if math.IsNaN(ipc) || math.IsInf(ipc, 0) || ipc < 0 ||
		math.IsNaN(dcuPerInst) || math.IsInf(dcuPerInst, 0) || dcuPerInst < 0 ||
		fromMHz <= 0 || toMHz <= 0 {
		return 0
	}
	if fromMHz == toMHz || ipc == 0 {
		return ipc
	}
	if !m.MemoryBound(dcuPerInst) {
		return ipc
	}
	return ipc * math.Pow(float64(fromMHz)/float64(toMHz), m.Exponent)
}

// ProjectPerf predicts relative performance (instruction throughput,
// IPC*f) at toMHz versus fromMHz. For core-bound samples this is
// f'/f; for memory-bound samples (f'/f)^(1-e).
func (m PerfModel) ProjectPerf(ipc, dcuPerInst float64, fromMHz, toMHz int) float64 {
	ipcTo := m.ProjectIPC(ipc, dcuPerInst, fromMHz, toMHz)
	return ipcTo * float64(toMHz)
}

// Validate reports implausible parameters.
func (m PerfModel) Validate() error {
	switch {
	case m.Threshold <= 0:
		return fmt.Errorf("model: non-positive DCU threshold %g", m.Threshold)
	case m.Exponent <= 0 || m.Exponent > 1.5:
		return fmt.Errorf("model: exponent %g outside (0,1.5]", m.Exponent)
	}
	return nil
}
