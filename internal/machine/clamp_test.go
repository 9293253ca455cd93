package machine

import "testing"

func TestClampGauss(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{0, 0},
		{1.5, 1.5},
		{-1.5, -1.5},
		{2, 2},
		{-2, -2},
		{3.7, 2},
		{-5, -2},
	}
	for _, c := range cases {
		if got := clampGauss(c.in); got != c.want {
			t.Errorf("clampGauss(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestJitterFactor(t *testing.T) {
	cases := []struct {
		pct, g, want float64
	}{
		{0.1, 0, 1},
		{0.1, 1, 1.1},
		{0.1, -1, 0.9},
		{0.1, 5, 1.2},  // draw clamps at +2σ
		{0.1, -5, 0.8}, // draw clamps at -2σ
		{0.5, -2, 0.2}, // 1 - 0.5*2 = 0 floors at 0.2
		{0.9, -2, 0.2}, // would be negative without the floor
	}
	for _, c := range cases {
		if got := jitterFactor(c.pct, c.g); got != c.want {
			t.Errorf("jitterFactor(%g, %g) = %g, want %g", c.pct, c.g, got, c.want)
		}
	}
}

func TestClampDuty(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{1, 1},
		{0.5, 0.5},
		{0.05, 0.05},
		{0.01, 0.05}, // below the T-state floor
		{0, 0.05},
		{-1, 0.05},
		{2, 1}, // cannot exceed full speed
	}
	for _, c := range cases {
		if got := clampDuty(c.in); got != c.want {
			t.Errorf("clampDuty(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}
