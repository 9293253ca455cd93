package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFitLeastSquaresRecoversExactLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5*x - 1.25
	}
	fit, err := FitLeastSquares(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-2.5) > 1e-12 || math.Abs(fit.Beta+1.25) > 1e-12 {
		t.Errorf("fit = %v, want y = 2.5x - 1.25", fit)
	}
}

func TestFitLeastSquaresErrors(t *testing.T) {
	if _, err := FitLeastSquares([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FitLeastSquares([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FitLeastSquares([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x values accepted")
	}
}

func TestFitLeastAbsRobustToOutlier(t *testing.T) {
	// Nine points on y = x, one gross outlier. The L1 fit should stay
	// near the line while least squares is dragged away.
	var xs, ys []float64
	for i := 0; i < 9; i++ {
		xs = append(xs, float64(i))
		ys = append(ys, float64(i))
	}
	xs = append(xs, 4.5)
	ys = append(ys, 40)

	l1, err := FitLeastAbs(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := FitLeastSquares(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l1.Alpha-1) > 0.05 {
		t.Errorf("L1 slope = %g, want ~1", l1.Alpha)
	}
	if math.Abs(l1.Beta) > 0.3 {
		t.Errorf("L1 intercept = %g, want ~0", l1.Beta)
	}
	if math.Abs(l2.Beta) < math.Abs(l1.Beta) {
		t.Errorf("least squares (beta %g) unexpectedly more robust than L1 (beta %g)", l2.Beta, l1.Beta)
	}
}

func TestSummaryStatistics(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Errorf("Std = %g, want sqrt(2)", s.Std)
	}
	if got := (Summary{}); Summarize(nil) != got {
		t.Errorf("Summarize(nil) = %+v, want zero", Summarize(nil))
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3.0, 20},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) != 0")
	}
}

func TestMinMaxEmpty(t *testing.T) {
	if !math.IsInf(Min(nil), 1) {
		t.Error("Min(nil) not +Inf")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("Max(nil) not -Inf")
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3)
	if w.n == len(w.buf) {
		t.Error("empty window reports full")
	}
	w.Push(1)
	w.Push(2)
	w.Push(3)
	if w.n != len(w.buf) || w.n != 3 {
		t.Errorf("window not full after 3 pushes: len=%d", w.n)
	}
	if w.Mean() != 2 {
		t.Errorf("Mean = %g, want 2", w.Mean())
	}
	w.Push(10) // evicts 1
	if w.Mean() != 5 {
		t.Errorf("Mean after eviction = %g, want 5", w.Mean())
	}
	if m := Max(w.buf[:w.n]); m != 10 {
		t.Errorf("max held sample = %g, want 10", m)
	}
}

func TestWindowZeroCapacityClamped(t *testing.T) {
	w := NewWindow(0)
	w.Push(7)
	if w.Mean() != 7 {
		t.Errorf("Mean = %g, want 7", w.Mean())
	}
}

// Property: the L1 fit of points exactly on a line recovers the line.
func TestFitLeastAbsExactLine(t *testing.T) {
	f := func(a8, b8 int8, n8 uint8) bool {
		a := float64(a8) / 16
		b := float64(b8) / 16
		n := int(n8)%8 + 3
		var xs, ys []float64
		for i := 0; i < n; i++ {
			xs = append(xs, float64(i))
			ys = append(ys, a*float64(i)+b)
		}
		fit, err := FitLeastAbs(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(fit.Alpha-a) < 1e-6 && math.Abs(fit.Beta-b) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: window mean is always between min and max of pushed values.
func TestWindowMeanBounds(t *testing.T) {
	f := func(vals []float64, cap8 uint8) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			// Skip pathological magnitudes whose running sum overflows;
			// the window targets power samples in ordinary ranges.
			if math.IsNaN(v) || math.Abs(v) > 1e12 {
				return true
			}
		}
		w := NewWindow(int(cap8%10) + 1)
		for _, v := range vals {
			w.Push(v)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		start := len(vals) - w.n
		for _, v := range vals[start:] {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		m := w.Mean()
		return m >= lo-1e-9*math.Abs(lo)-1e-9 && m <= hi+1e-9*math.Abs(hi)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
