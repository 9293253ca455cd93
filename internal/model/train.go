package model

import (
	"fmt"
	"math"
	"sort"

	"aapm/internal/machine"
	"aapm/internal/phase"
	"aapm/internal/pstate"
	"aapm/internal/stats"
	"aapm/internal/trace"
)

// TrainingPoint is one (configuration, p-state) observation from the
// characterization runs: the counter rates the models consume plus the
// measured power they are fitted against.
type TrainingPoint struct {
	Config      string
	PStateIndex int
	FreqMHz     int
	DPC         float64
	PowerW      float64
	IPC         float64
	DCUPerInst  float64
}

// CollectTrainingData runs every training phase at every p-state of
// the platform described by cfg (its StartFreqMHz is overridden) and
// returns one observation per (phase, p-state) — the paper's 12
// data points per p-state setting when given the MS-Loops set.
// instructions bounds each characterization run's length.
func CollectTrainingData(cfg machine.Config, set []phase.Params, instructions float64) ([]TrainingPoint, error) {
	if len(set) == 0 {
		return nil, fmt.Errorf("model: empty training set")
	}
	if instructions <= 0 {
		return nil, fmt.Errorf("model: non-positive training run length")
	}
	var out []TrainingPoint
	// Build one probe machine to learn the table size.
	probe, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	nStates := probe.Table().Len()
	for idx := 0; idx < nStates; idx++ {
		mcfg := cfg
		mcfg.StartFreqMHz = probe.Table().At(idx).FreqMHz
		m, err := machine.New(mcfg)
		if err != nil {
			return nil, err
		}
		for _, p := range set {
			p := p
			p.Instructions = instructions
			w := phase.Workload{Name: p.Name, Phases: []phase.Params{p}}
			run, err := m.Run(w, nil)
			if err != nil {
				return nil, fmt.Errorf("model: training run %s@%s: %w", p.Name, m.Table().At(idx), err)
			}
			if len(run.Rows) == 0 {
				return nil, fmt.Errorf("model: training run %s@%s produced no samples", p.Name, m.Table().At(idx))
			}
			out = append(out, TrainingPoint{
				Config:      p.Name,
				PStateIndex: idx,
				FreqMHz:     m.Table().At(idx).FreqMHz,
				DPC:         timeWeighted(run.Rows, func(r trace.Row) float64 { return r.DPC }),
				PowerW:      timeWeighted(run.Rows, func(r trace.Row) float64 { return r.MeasuredPowerW }),
				IPC:         timeWeighted(run.Rows, func(r trace.Row) float64 { return r.IPC }),
				DCUPerInst:  dcuPerInst(run.Rows),
			})
		}
	}
	return out, nil
}

// FitPowerModel fits the per-p-state DPC power lines by least absolute
// error, the paper's objective.
func FitPowerModel(t *pstate.Table, points []TrainingPoint) (*PowerModel, error) {
	byState := map[int][][2]float64{}
	maxIdx := -1
	for _, p := range points {
		byState[p.PStateIndex] = append(byState[p.PStateIndex], [2]float64{p.DPC, p.PowerW})
		if p.PStateIndex > maxIdx {
			maxIdx = p.PStateIndex
		}
	}
	if t.Len() != maxIdx+1 {
		return nil, fmt.Errorf("model: training data covers %d p-states, table has %d", maxIdx+1, t.Len())
	}
	fits := make([]stats.Linear, t.Len())
	for idx := 0; idx < t.Len(); idx++ {
		pts := byState[idx]
		if len(pts) < 3 {
			return nil, fmt.Errorf("model: p-state %d has only %d training points", idx, len(pts))
		}
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, xy := range pts {
			xs[i], ys[i] = xy[0], xy[1]
		}
		fit, err := stats.FitLeastAbs(xs, ys)
		if err != nil {
			return nil, fmt.Errorf("model: p-state %d: %w", idx, err)
		}
		fits[idx] = fit
	}
	return NewPowerModel(t, fits)
}

// PerfFit is the result of fitting eq. 3's parameters.
type PerfFit struct {
	Best PerfModel
	// MeanAbsRelErr is the best model's training error.
	MeanAbsRelErr float64
	// ExponentMinima lists exponents that are local minima of the
	// training error at the best threshold, mirroring the paper's
	// observation of two usable values (0.81 and 0.59).
	ExponentMinima []float64
}

// FitPerfModel grid-searches the DCU/IPC threshold and frequency
// exponent minimizing mean absolute relative IPC-prediction error over
// all ordered p-state pairs of every training configuration.
func FitPerfModel(points []TrainingPoint) (PerfFit, error) {
	byConfig := map[string][]TrainingPoint{}
	for _, p := range points {
		byConfig[p.Config] = append(byConfig[p.Config], p)
	}
	if len(byConfig) == 0 {
		return PerfFit{}, fmt.Errorf("model: no training points")
	}
	names := make([]string, 0, len(byConfig))
	for n := range byConfig {
		sort.Slice(byConfig[n], func(i, j int) bool {
			return byConfig[n][i].FreqMHz < byConfig[n][j].FreqMHz
		})
		names = append(names, n)
	}
	sort.Strings(names)

	// A threshold only decides, per ordered pair, between the unscaled
	// and the scaled IPC projection. So each pair's error term is
	// computed once unscaled and once per grid exponent scaled, and a
	// grid point sums the terms its threshold selects, in pair order —
	// the same additions as projecting every pair at every point.
	var exps []float64
	for e := 0.30; e <= 1.20+1e-9; e += 0.01 {
		exps = append(exps, e)
	}
	var (
		dcu    []float64                      // per pair: the from-point's DCU/IPC
		core   []float64                      // per pair: error of the unscaled projection
		scaled = make([][]float64, len(exps)) // per exponent, per pair: error of the scaled one
	)
	// An infinite threshold never scales and a negative infinite one
	// always does; ProjectIPC's input guards apply to both.
	unscaledModel := PerfModel{Threshold: math.Inf(1)}
	for _, name := range names {
		pts := byConfig[name]
		for _, from := range pts {
			for _, to := range pts {
				if from.FreqMHz == to.FreqMHz || to.IPC == 0 {
					continue
				}
				dcu = append(dcu, from.DCUPerInst)
				pred := unscaledModel.ProjectIPC(from.IPC, from.DCUPerInst, from.FreqMHz, to.FreqMHz)
				core = append(core, math.Abs(pred-to.IPC)/to.IPC)
				for k, e := range exps {
					m := PerfModel{Threshold: math.Inf(-1), Exponent: e}
					pred := m.ProjectIPC(from.IPC, from.DCUPerInst, from.FreqMHz, to.FreqMHz)
					scaled[k] = append(scaled[k], math.Abs(pred-to.IPC)/to.IPC)
				}
			}
		}
	}
	// evalErr is the mean error of PerfModel{th, exps[k]}.
	evalErr := func(th float64, k int) float64 {
		if len(dcu) == 0 {
			return math.Inf(1)
		}
		var sum float64
		for p, d := range dcu {
			if d >= th {
				sum += scaled[k][p]
			} else {
				sum += core[p]
			}
		}
		return sum / float64(len(dcu))
	}

	best := PerfFit{MeanAbsRelErr: math.Inf(1)}
	bestK := 0
	for th := 0.10; th <= 3.0+1e-9; th += 0.05 {
		for k, e := range exps {
			err := evalErr(th, k)
			if err < best.MeanAbsRelErr {
				best.Best = PerfModel{Threshold: th, Exponent: e}
				best.MeanAbsRelErr = err
				bestK = k
			}
		}
	}
	// The training set is sparse between the core- and memory-bound
	// extremes, so a whole plateau of thresholds ties for the optimum
	// (the paper notes the same sparsity). Report the middle of the
	// plateau containing the optimum rather than its first grid point.
	tied := func(th float64) bool {
		return evalErr(th, bestK) <= best.MeanAbsRelErr+1e-12
	}
	lo, hi := best.Best.Threshold, best.Best.Threshold
	for th := lo - 0.05; th >= 0.10-1e-9 && tied(th); th -= 0.05 {
		lo = th
	}
	for th := hi + 0.05; th <= 3.0+1e-9 && tied(th); th += 0.05 {
		hi = th
	}
	best.Best.Threshold = (lo + hi) / 2
	// Scan the exponent axis at the best threshold for local minima.
	curve := make([]float64, len(exps))
	for k := range exps {
		curve[k] = evalErr(best.Best.Threshold, k)
	}
	for k := 1; k < len(curve)-1; k++ {
		if curve[k] < curve[k-1] && curve[k] < curve[k+1] {
			best.ExponentMinima = append(best.ExponentMinima, exps[k])
		}
	}
	return best, nil
}

// helpers over trace rows; kept here so the trace package stays free
// of model-specific aggregation choices.

func timeWeighted(rows []trace.Row, f func(trace.Row) float64) float64 {
	var num, den float64
	for _, r := range rows {
		w := r.Interval.Seconds()
		num += f(r) * w
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// dcuPerInst aggregates DCU cycles over retired instructions across
// the whole run (count-weighted, matching how a counter delta over the
// full run would read).
func dcuPerInst(rows []trace.Row) float64 {
	var dcuCycles, instr float64
	for _, r := range rows {
		cyc := r.Interval.Seconds() * float64(r.FreqMHz) * 1e6
		dcuCycles += r.DCU * cyc
		instr += r.Instructions
	}
	if instr == 0 {
		return 0
	}
	return dcuCycles / instr
}
