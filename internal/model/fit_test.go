package model

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"aapm/internal/machine"
	"aapm/internal/mloops"
	"aapm/internal/sensor"
)

// fitPerfModelReference is the direct eq. 3 grid search: every ordered
// pair is projected at every (threshold, exponent) grid point.
// FitPerfModel must return exactly its result.
func fitPerfModelReference(points []TrainingPoint) (PerfFit, error) {
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

	evalErr := func(m PerfModel) float64 {
		var sum float64
		var n int
		for _, name := range names {
			pts := byConfig[name]
			for _, from := range pts {
				for _, to := range pts {
					if from.FreqMHz == to.FreqMHz || to.IPC == 0 {
						continue
					}
					pred := m.ProjectIPC(from.IPC, from.DCUPerInst, from.FreqMHz, to.FreqMHz)
					sum += math.Abs(pred-to.IPC) / to.IPC
					n++
				}
			}
		}
		if n == 0 {
			return math.Inf(1)
		}
		return sum / float64(n)
	}

	best := PerfFit{MeanAbsRelErr: math.Inf(1)}
	for th := 0.10; th <= 3.0+1e-9; th += 0.05 {
		for e := 0.30; e <= 1.20+1e-9; e += 0.01 {
			m := PerfModel{Threshold: th, Exponent: e}
			err := evalErr(m)
			if err < best.MeanAbsRelErr {
				best.Best = m
				best.MeanAbsRelErr = err
			}
		}
	}
	tied := func(th float64) bool {
		return evalErr(PerfModel{Threshold: th, Exponent: best.Best.Exponent}) <= best.MeanAbsRelErr+1e-12
	}
	lo, hi := best.Best.Threshold, best.Best.Threshold
	for th := lo - 0.05; th >= 0.10-1e-9 && tied(th); th -= 0.05 {
		lo = th
	}
	for th := hi + 0.05; th <= 3.0+1e-9 && tied(th); th += 0.05 {
		hi = th
	}
	best.Best.Threshold = (lo + hi) / 2
	type ePt struct{ e, err float64 }
	var curve []ePt
	for e := 0.30; e <= 1.20+1e-9; e += 0.01 {
		curve = append(curve, ePt{e, evalErr(PerfModel{Threshold: best.Best.Threshold, Exponent: e})})
	}
	for i := 1; i < len(curve)-1; i++ {
		if curve[i].err < curve[i-1].err && curve[i].err < curve[i+1].err {
			best.ExponentMinima = append(best.ExponentMinima, curve[i].e)
		}
	}
	return best, nil
}

// sameFit compares two fits field by field, floats by their bits.
func sameFit(t *testing.T, label string, got, want PerfFit) {
	t.Helper()
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	if bits(got.Best.Threshold) != bits(want.Best.Threshold) ||
		bits(got.Best.Exponent) != bits(want.Best.Exponent) ||
		bits(got.MeanAbsRelErr) != bits(want.MeanAbsRelErr) ||
		!slices.EqualFunc(got.ExponentMinima, want.ExponentMinima, func(a, b float64) bool { return bits(a) == bits(b) }) {
		t.Errorf("%s: FitPerfModel = %+v, reference = %+v", label, got, want)
	}
}

// TestFitPerfModelMatchesReference pins FitPerfModel to the direct
// grid search on the MS-Loops training set and on seeded random point
// sets, including degenerate points (zero or invalid rates, repeated
// frequencies) that take ProjectIPC's guard paths and points on a grid
// threshold.
func TestFitPerfModelMatchesReference(t *testing.T) {
	set, err := mloops.TrainingSet()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := CollectTrainingData(machine.Config{Chain: sensor.NIDefault(), Seed: 7}, set, 3e8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FitPerfModel(pts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fitPerfModelReference(pts)
	if err != nil {
		t.Fatal(err)
	}
	sameFit(t, "MS-Loops", got, want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MS-Loops: fits differ: %+v vs %+v", got, want)
	}

	freqs := []int{600, 800, 1000, 1200, 1400, 1600, 1800, 2000}
	// Grid thresholds, accumulated as the search steps: a point on one
	// tests the boundary of the memory-bound classification.
	var grid []float64
	for th := 0.10; th <= 3.0+1e-9; th += 0.05 {
		grid = append(grid, th)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pts []TrainingPoint
		for c := 0; c < 1+rng.Intn(6); c++ {
			name := string(rune('a' + rng.Intn(4))) // configs may repeat
			for _, f := range freqs[:2+rng.Intn(len(freqs)-1)] {
				p := TrainingPoint{
					Config:     name,
					FreqMHz:    f,
					IPC:        0.05 + 2*rng.Float64(),
					DCUPerInst: 3.2 * rng.Float64(),
				}
				switch rng.Intn(12) {
				case 0:
					p.IPC = 0
				case 1:
					p.DCUPerInst = math.NaN()
				case 2:
					p.IPC = -1
				case 3:
					p.FreqMHz = freqs[0] // a repeated frequency
				case 4, 5:
					p.DCUPerInst = grid[rng.Intn(len(grid))]
				}
				pts = append(pts, p)
			}
		}
		got, gotErr := FitPerfModel(pts)
		want, wantErr := fitPerfModelReference(pts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: errors differ: %v vs %v", seed, gotErr, wantErr)
		}
		sameFit(t, fmt.Sprintf("random set %d", seed), got, want)
	}
	if _, err := FitPerfModel(nil); err == nil {
		t.Error("empty point set accepted")
	}
}
