// Package trace records the per-interval time series of a platform
// run: p-state, counter rates, true and measured power. Experiments
// consume runs to compute the paper's tables and figures; the package
// also renders compact CSV and ASCII-chart views of a run.
package trace

import (
	"fmt"
	"io"
	"slices"
	"time"

	"aapm/internal/stats"
)

// Row is one monitoring interval.
type Row struct {
	// T is the interval start; Interval its length.
	T        time.Duration
	Interval time.Duration
	// FreqMHz is the p-state frequency active during the interval.
	FreqMHz int
	// Counter-derived activity rates for the interval.
	DPC, IPC, DCU, L2PC, MemPC float64
	// TruePowerW is the ground-truth average power; MeasuredPowerW is
	// what the sensing chain reported.
	TruePowerW     float64
	MeasuredPowerW float64
	// Instructions retired during the interval.
	Instructions float64
	// Phase labels the workload phase active at interval end: 0 for
	// none, otherwise 1 + an index into the run's phase-label table
	// (Run.Phases). Run.PhaseName resolves it. An index rather than
	// the name keeps Row free of pointers, so retained traces are
	// never scanned by the garbage collector.
	Phase uint32
	// TempC is the thermal sensor reading at interval end (0 when the
	// platform has no thermal model).
	TempC float64
	// Duty is the clock-modulation duty cycle the interval ran at
	// (1 when no throttling governor is active).
	Duty float64
}

// Run is a complete workload execution under one policy.
type Run struct {
	Workload string
	Policy   string
	Rows     []Row
	// Phases names the phases Rows[i].Phase refers to. Runs of one
	// workload may share one table.
	Phases *PhaseLabels

	// Ticks counts the recorded monitoring intervals; Duration is
	// their total virtual time, of which StallTime was halted
	// (transition latency plus the stopped fraction of a modulated
	// clock) and BusyTime computing.
	Ticks     int
	Duration  time.Duration
	StallTime time.Duration
	BusyTime  time.Duration
	// Instructions is total retired instructions.
	Instructions float64
	// EnergyJ integrates true power; MeasuredEnergyJ integrates the
	// measured samples the way the paper computes energy.
	EnergyJ         float64
	MeasuredEnergyJ float64
	// Transitions counts p-state changes the policy made;
	// FailedTransitions counts change attempts the (faulted) actuator
	// abandoned.
	Transitions       int
	FailedTransitions int

	// Degradations is the run's degradation log: injected faults and
	// the governor's graceful-degradation responses, in time order.
	// The slice is capped at DegradationLogCap entries;
	// DegradationCounts tallies every event by "source/kind"
	// regardless of the cap.
	Degradations      []Degradation
	DegradationCounts map[string]int
}

// PhaseLabels is a run's phase-label table. It is immutable once
// built, so any number of runs may share one.
type PhaseLabels struct{ names []string }

// NewPhaseLabels builds a table whose index i+1 names names[i].
func NewPhaseLabels(names ...string) *PhaseLabels {
	return &PhaseLabels{names: slices.Clone(names)}
}

// Name returns the label of Row.Phase value p: "" for 0, for an index
// past the table, and on a nil table.
func (l *PhaseLabels) Name(p uint32) string {
	if l == nil || p == 0 || int(p) > len(l.names) {
		return ""
	}
	return l.names[p-1]
}

// PhaseName returns the name of the phase row was labelled with.
func (r *Run) PhaseName(row *Row) string { return r.Phases.Name(row.Phase) }

// Degradation is one entry in a run's degradation log: either a fault
// the platform injected (Source "sensor", "counters", "actuator") or
// a governor's response to degraded inputs (Source "pm", "ps", ...).
type Degradation struct {
	// T is the virtual time the event was recorded.
	T time.Duration
	// Source names the subsystem that emitted the entry.
	Source string
	// Kind names the event (e.g. "dropout", "miss", "hold-dpc",
	// "offline-fallback").
	Kind string
	// Detail is an optional human-readable annotation.
	Detail string
}

// DegradationLogCap bounds Run.Degradations so high fault rates on
// long runs don't balloon the trace; DegradationCounts keeps exact
// totals past the cap.
const DegradationLogCap = 512

// AddDegradation appends d to the log (up to DegradationLogCap) and
// tallies it in DegradationCounts.
func (r *Run) AddDegradation(d Degradation) {
	if r.DegradationCounts == nil {
		r.DegradationCounts = make(map[string]int)
	}
	r.DegradationCounts[d.Source+"/"+d.Kind]++
	if len(r.Degradations) < DegradationLogCap {
		r.Degradations = append(r.Degradations, d)
	}
}

// DegradationTotal returns the total number of logged events
// (including those past the cap).
func (r *Run) DegradationTotal() int {
	n := 0
	for _, v := range r.DegradationCounts {
		n += v
	}
	return n
}

// AvgPowerW returns time-weighted average true power.
func (r *Run) AvgPowerW() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return r.EnergyJ / r.Duration.Seconds()
}

// IntervalsOver counts the retained rows whose measured power exceeds
// limitW — the paper's power-limit adherence view of a run. A
// non-positive limit counts nothing.
func (r *Run) IntervalsOver(limitW float64) int {
	if limitW <= 0 {
		return 0
	}
	n := 0
	for _, row := range r.Rows {
		if row.MeasuredPowerW > limitW {
			n++
		}
	}
	return n
}

// IPS returns average instructions per second (the paper's performance
// metric is total execution time; IPS is its reciprocal scaled by
// work, convenient for cross-run comparison).
func (r *Run) IPS() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return r.Instructions / r.Duration.Seconds()
}

// EDP returns the energy-delay product (J·s) from true energy — the
// standard efficiency metric weighing savings against slowdown.
func (r *Run) EDP() float64 {
	return r.EnergyJ * r.Duration.Seconds()
}

// ED2P returns the energy-delay-squared product (J·s²), which weighs
// performance more heavily (appropriate when voltage scaling is the
// lever, since energy falls superlinearly with frequency).
func (r *Run) ED2P() float64 {
	d := r.Duration.Seconds()
	return r.EnergyJ * d * d
}

// MeasuredPowers returns the per-interval measured power series.
func (r *Run) MeasuredPowers() []float64 {
	out := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.MeasuredPowerW
	}
	return out
}

// TruePowers returns the per-interval true power series.
func (r *Run) TruePowers() []float64 {
	out := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.TruePowerW
	}
	return out
}

// Freqs returns the per-interval frequency series in MHz.
func (r *Run) Freqs() []float64 {
	out := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = float64(row.FreqMHz)
	}
	return out
}

// MovingAvg returns the moving average of xs over window w (the
// paper's power-limit adherence metric uses w=10 over 10 ms samples).
func MovingAvg(xs []float64, w int) []float64 {
	if w <= 1 || len(xs) == 0 {
		out := make([]float64, len(xs))
		copy(out, xs)
		return out
	}
	out := make([]float64, 0, len(xs))
	win := stats.NewWindow(w)
	for _, x := range xs {
		win.Push(x)
		out = append(out, win.Mean())
	}
	return out
}

// FractionAbove returns the fraction of xs strictly above limit.
func FractionAbove(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Temps returns the per-interval thermal sensor series.
func (r *Run) Temps() []float64 {
	out := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.TempC
	}
	return out
}

// WriteCSV emits the run as CSV with a header row.
func (r *Run) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "t_ms,interval_ms,freq_mhz,dpc,ipc,dcu,l2pc,mempc,true_w,meas_w,instructions,phase,temp_c,duty"); err != nil {
		return err
	}
	for i := range r.Rows {
		row := &r.Rows[i]
		_, err := fmt.Fprintf(w, "%.1f,%.1f,%d,%.4f,%.4f,%.4f,%.5f,%.5f,%.3f,%.3f,%.0f,%s,%.1f,%.3f\n",
			float64(row.T)/float64(time.Millisecond),
			float64(row.Interval)/float64(time.Millisecond),
			row.FreqMHz, row.DPC, row.IPC, row.DCU, row.L2PC, row.MemPC,
			row.TruePowerW, row.MeasuredPowerW, row.Instructions, r.PhaseName(row),
			row.TempC, row.Duty)
		if err != nil {
			return err
		}
	}
	return nil
}
