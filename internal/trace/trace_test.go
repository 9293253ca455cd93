package trace

import (
	"math"
	"strings"
	"testing"
	"time"
)

func sampleRun() *Run {
	r := &Run{Workload: "w", Policy: "p", Phases: NewPhaseLabels("ph", "other")}
	for i := 0; i < 4; i++ {
		r.Rows = append(r.Rows, Row{
			T:              time.Duration(i) * 10 * time.Millisecond,
			Interval:       10 * time.Millisecond,
			FreqMHz:        2000,
			DPC:            1.5,
			IPC:            1.0,
			TruePowerW:     float64(10 + i),
			MeasuredPowerW: float64(10 + i),
			Instructions:   2e7,
			Phase:          1,
		})
	}
	r.Ticks = 4
	r.Duration = 40 * time.Millisecond
	r.Instructions = 8e7
	r.EnergyJ = 0.01 * (10 + 11 + 12 + 13)
	r.MeasuredEnergyJ = r.EnergyJ
	return r
}

func TestRunAggregates(t *testing.T) {
	r := sampleRun()
	if got := r.AvgPowerW(); math.Abs(got-11.5) > 1e-9 {
		t.Errorf("AvgPowerW = %g, want 11.5", got)
	}
	if got := r.IPS(); math.Abs(got-2e9) > 1 {
		t.Errorf("IPS = %g, want 2e9", got)
	}
	if got := r.MeasuredPowers(); len(got) != 4 || got[3] != 13 {
		t.Errorf("MeasuredPowers = %v", got)
	}
	if got := r.TruePowers(); got[0] != 10 {
		t.Errorf("TruePowers = %v", got)
	}
	if got := r.Freqs(); got[0] != 2000 {
		t.Errorf("Freqs = %v", got)
	}
	if got := r.IntervalsOver(11); got != 2 {
		t.Errorf("IntervalsOver(11) = %d, want 2", got)
	}
	if got := r.IntervalsOver(0); got != 0 {
		t.Errorf("IntervalsOver(0) = %d, want 0 (no limit)", got)
	}
	r.Rows[3].MeasuredPowerW = math.NaN() // a dropped acquisition is no violation
	if got := r.IntervalsOver(11); got != 1 {
		t.Errorf("IntervalsOver(11) with a NaN row = %d, want 1", got)
	}
	empty := &Run{}
	if empty.AvgPowerW() != 0 || empty.IPS() != 0 {
		t.Error("empty run aggregates nonzero")
	}
}

func TestMovingAvg(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	got := MovingAvg(xs, 2)
	want := []float64{1, 1.5, 2.5, 3.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("MovingAvg[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// Window of 1 (or less) copies input.
	same := MovingAvg(xs, 1)
	for i := range xs {
		if same[i] != xs[i] {
			t.Errorf("MovingAvg(w=1)[%d] = %g", i, same[i])
		}
	}
	if len(MovingAvg(nil, 3)) != 0 {
		t.Error("MovingAvg(nil) non-empty")
	}
}

func TestFractionAbove(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionAbove(xs, 2); got != 0.5 {
		t.Errorf("FractionAbove = %g, want 0.5", got)
	}
	if got := FractionAbove(xs, 10); got != 0 {
		t.Errorf("FractionAbove = %g, want 0", got)
	}
	if got := FractionAbove(nil, 1); got != 0 {
		t.Errorf("FractionAbove(nil) = %g", got)
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	if err := sampleRun().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want header+4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t_ms,interval_ms,freq_mhz") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "2000") || !strings.Contains(lines[1], "ph") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestRenderASCII(t *testing.T) {
	var sb strings.Builder
	err := RenderASCII(&sb, "title", 40, 6,
		Series{Name: "a", Values: []float64{1, 2, 3, 4, 5}},
		Series{Name: "b", Values: []float64{5, 4, 3, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "*=a") || !strings.Contains(out, "+=b") {
		t.Errorf("chart output missing pieces:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 8 { // title + 6 grid + legend
		t.Errorf("chart has %d lines, want 8", len(lines))
	}
}

func TestRenderASCIIConstantSeries(t *testing.T) {
	var sb strings.Builder
	if err := RenderASCII(&sb, "flat", 20, 4, Series{Name: "c", Values: []float64{2, 2, 2}}); err != nil {
		t.Fatal(err)
	}
}

func TestRenderASCIIDownsamples(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	var sb strings.Builder
	if err := RenderASCII(&sb, "big", 50, 5, Series{Name: "x", Values: vals}); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n")[1:6] {
		if len(line) > 70 {
			t.Errorf("grid line too wide: %d", len(line))
		}
	}
}

func TestTimelineSummary(t *testing.T) {
	var sb strings.Builder
	if err := sampleRun().TimelineSummary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "run w/p") || !strings.Contains(out, "2000 MHz: 100.0%") {
		t.Errorf("summary:\n%s", out)
	}
}

func TestEnergyDelayProducts(t *testing.T) {
	r := sampleRun() // 0.04 s, 0.46 J
	if got, want := r.EDP(), 0.46*0.04; math.Abs(got-want) > 1e-12 {
		t.Errorf("EDP = %g, want %g", got, want)
	}
	if got, want := r.ED2P(), 0.46*0.04*0.04; math.Abs(got-want) > 1e-12 {
		t.Errorf("ED2P = %g, want %g", got, want)
	}
}

func TestPhaseLabels(t *testing.T) {
	names := []string{"a", "b"}
	l := NewPhaseLabels(names...)
	names[0] = "mutated"
	for p, want := range []string{"", "a", "b", ""} {
		if got := l.Name(uint32(p)); got != want {
			t.Errorf("Name(%d) = %q, want %q", p, got, want)
		}
	}
	var none *PhaseLabels
	if got := none.Name(1); got != "" {
		t.Errorf("nil table Name(1) = %q", got)
	}
	r := &Run{Phases: l, Rows: []Row{{Phase: 2}}}
	if got := r.PhaseName(&r.Rows[0]); got != "b" {
		t.Errorf("PhaseName = %q, want b", got)
	}
}
