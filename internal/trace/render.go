package trace

import (
	"fmt"
	"io"
	"strings"
	"time"

	"aapm/internal/stats"
)

// Series is a named float series for chart rendering.
type Series struct {
	Name   string
	Values []float64
}

// RenderASCII draws the series as a fixed-width ASCII line chart with
// one glyph per series, the terminal stand-in for the paper's figures.
// width and height bound the plot area; the series are downsampled by
// bucket averaging to fit.
func RenderASCII(w io.Writer, title string, width, height int, series ...Series) error {
	if width < 10 {
		width = 10
	}
	if height < 4 {
		height = 4
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#', '@'}

	lo, hi := minMax(series)
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		ds := downsample(s.Values, width)
		for x, v := range ds {
			y := int((v - lo) / (hi - lo) * float64(height-1))
			if y < 0 {
				y = 0
			}
			if y >= height {
				y = height - 1
			}
			grid[height-1-y][x] = g
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	for i, row := range grid {
		label := "        "
		switch i {
		case 0:
			label = fmt.Sprintf("%7.2f ", hi)
		case height - 1:
			label = fmt.Sprintf("%7.2f ", lo)
		}
		if _, err := fmt.Fprintf(w, "%s|%s|\n", label, string(row)); err != nil {
			return err
		}
	}
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", glyphs[si%len(glyphs)], s.Name))
	}
	_, err := fmt.Fprintf(w, "        %s\n", strings.Join(legend, "  "))
	return err
}

func minMax(series []Series) (lo, hi float64) {
	lo, hi = 0, 0
	first := true
	for _, s := range series {
		for _, v := range s.Values {
			if first {
				lo, hi = v, v
				first = false
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

func downsample(xs []float64, width int) []float64 {
	if len(xs) == 0 {
		return nil
	}
	if len(xs) <= width {
		out := make([]float64, len(xs))
		copy(out, xs)
		return out
	}
	out := make([]float64, width)
	for i := 0; i < width; i++ {
		a := i * len(xs) / width
		b := (i + 1) * len(xs) / width
		if b <= a {
			b = a + 1
		}
		out[i] = stats.Mean(xs[a:b])
	}
	return out
}

// TimelineSummary prints a compact numeric digest of a run: duration,
// energy, average power/frequency, and residency per p-state.
func (r *Run) TimelineSummary(w io.Writer) error {
	resid := map[int]time.Duration{}
	for _, row := range r.Rows {
		resid[row.FreqMHz] += row.Interval
	}
	if _, err := fmt.Fprintf(w, "run %s/%s: %.2fs, %.1fJ (true) %.1fJ (measured), avg %.2fW, %d transitions\n",
		r.Workload, r.Policy, r.Duration.Seconds(), r.EnergyJ, r.MeasuredEnergyJ, r.AvgPowerW(), r.Transitions); err != nil {
		return err
	}
	freqs := make([]int, 0, len(resid))
	for f := range resid {
		freqs = append(freqs, f)
	}
	for i := 0; i < len(freqs); i++ {
		for j := i + 1; j < len(freqs); j++ {
			if freqs[j] < freqs[i] {
				freqs[i], freqs[j] = freqs[j], freqs[i]
			}
		}
	}
	for _, f := range freqs {
		share := float64(resid[f]) / float64(r.Duration) * 100
		if _, err := fmt.Fprintf(w, "  %4d MHz: %5.1f%%\n", f, share); err != nil {
			return err
		}
	}
	return nil
}
