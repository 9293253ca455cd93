// Package stats provides the small numerical toolkit the reproduction
// needs: linear fits (least squares and least absolute error, the
// paper's power-model objective), moving windows, and summary
// statistics. Everything is dependency-free and deterministic.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Linear is a fitted line y = Alpha*x + Beta.
type Linear struct {
	Alpha float64
	Beta  float64
}

// Eval returns Alpha*x + Beta.
func (l Linear) Eval(x float64) float64 { return l.Alpha*x + l.Beta }

// String formats the line as "y = a*x + b".
func (l Linear) String() string { return fmt.Sprintf("y = %.4g*x + %.4g", l.Alpha, l.Beta) }

// FitLeastSquares fits y = a*x + b minimizing squared error.
func FitLeastSquares(xs, ys []float64) (Linear, error) {
	if len(xs) != len(ys) {
		return Linear{}, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	n := float64(len(xs))
	if n < 2 {
		return Linear{}, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Linear{}, fmt.Errorf("stats: degenerate x values")
	}
	a := (n*sxy - sx*sy) / den
	b := (sy - a*sx) / n
	return Linear{Alpha: a, Beta: b}, nil
}

// FitLeastAbs fits y = a*x + b minimizing the sum of absolute errors
// (the objective the paper uses for its DPC power model). It uses
// iteratively reweighted least squares, which converges to the L1
// solution for the small, well-conditioned training sets used here.
func FitLeastAbs(xs, ys []float64) (Linear, error) {
	fit, err := FitLeastSquares(xs, ys)
	if err != nil {
		return Linear{}, err
	}
	const (
		iters = 60
		eps   = 1e-6
	)
	w := make([]float64, len(xs))
	for iter := 0; iter < iters; iter++ {
		for i := range xs {
			r := math.Abs(ys[i] - fit.Eval(xs[i]))
			if r < eps {
				r = eps
			}
			w[i] = 1 / r
		}
		next, err := fitWeighted(xs, ys, w)
		if err != nil {
			return Linear{}, err
		}
		if math.Abs(next.Alpha-fit.Alpha) < 1e-10 && math.Abs(next.Beta-fit.Beta) < 1e-10 {
			fit = next
			break
		}
		fit = next
	}
	return fit, nil
}

func fitWeighted(xs, ys, w []float64) (Linear, error) {
	var sw, swx, swy, swxx, swxy float64
	for i := range xs {
		sw += w[i]
		swx += w[i] * xs[i]
		swy += w[i] * ys[i]
		swxx += w[i] * xs[i] * xs[i]
		swxy += w[i] * xs[i] * ys[i]
	}
	den := sw*swxx - swx*swx
	if den == 0 {
		return Linear{}, fmt.Errorf("stats: degenerate weighted system")
	}
	a := (sw*swxy - swx*swy) / den
	b := (swy - a*swx) / sw
	return Linear{Alpha: a, Beta: b}, nil
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Min returns the minimum, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// of the sorted values. It returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Window is a fixed-capacity moving window over float64 samples, used
// by PM's 100 ms moving-average power check (ten 10 ms samples).
type Window struct {
	buf  []float64
	next int
	n    int
}

// NewWindow returns a moving window holding up to capacity samples.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		capacity = 1
	}
	return &Window{buf: make([]float64, capacity)}
}

// Push adds a sample, evicting the oldest once full.
func (w *Window) Push(x float64) {
	w.buf[w.next] = x
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

// Mean returns the mean of held samples (0 when empty).
func (w *Window) Mean() float64 {
	if w.n == 0 {
		return 0
	}
	var s float64
	for i := 0; i < w.n; i++ {
		s += w.buf[i]
	}
	return s / float64(w.n)
}

// Summary captures descriptive statistics of a series.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P50, P95, P99 float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Std:  StdDev(xs),
		Min:  Min(xs),
		Max:  Max(xs),
		P50:  Quantile(xs, 0.50),
		P95:  Quantile(xs, 0.95),
		P99:  Quantile(xs, 0.99),
	}
}
