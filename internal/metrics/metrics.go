// Package metrics aggregates per-run engine counters from the
// machine's tick engine. A Collector subscribes to a session's
// Hook bus (machine.Session.Subscribe / Machine.RunWith) and tallies
// ticks, transitions, stall time, energy, power-limit violations,
// degradation events and — when the session has stage timing enabled —
// per-stage wall-clock, without touching the trace itself.
package metrics

import (
	"fmt"
	"io"
	"time"

	"aapm/internal/machine"
	"aapm/internal/trace"
)

// WallClock aggregates host wall-clock samples of a repeated
// operation — e.g. the cluster coordinator's per-tick step/aggregate/
// reallocate cycle, where it makes worker-pool speedups observable.
// Purely observational: wall-clock never feeds back into virtual time
// or policy decisions, so timed runs stay deterministic. The zero
// value is ready to use. Not safe for concurrent use.
type WallClock struct {
	// N is the number of samples; Total their sum; Max the largest;
	// Min the smallest (0 before any Add).
	N     int
	Total time.Duration
	Max   time.Duration
	Min   time.Duration
}

// Add records one sample.
func (w *WallClock) Add(d time.Duration) {
	if w.N == 0 || d < w.Min {
		w.Min = d
	}
	w.N++
	w.Total += d
	if d > w.Max {
		w.Max = d
	}
}

// Merge folds another aggregate into w, preserving the distribution
// tails (Min and Max) — how the cluster coordinator combines its
// workers' per-tick shard timings into one Result.TickWall. Merging
// the zero value is the identity, and Merge is commutative up to
// field equality.
func (w *WallClock) Merge(o WallClock) {
	if o.N == 0 {
		return
	}
	if w.N == 0 || o.Min < w.Min {
		w.Min = o.Min
	}
	if o.Max > w.Max {
		w.Max = o.Max
	}
	w.N += o.N
	w.Total += o.Total
}

// Avg returns the mean sample, or 0 before any Add.
func (w *WallClock) Avg() time.Duration {
	if w.N == 0 {
		return 0
	}
	return w.Total / time.Duration(w.N)
}

// Collector is a machine.Hook that aggregates engine counters over
// one run. The zero value is ready to use; set LimitW to also count
// power-limit violations. A Collector must not be shared across
// concurrently stepped sessions.
type Collector struct {
	// LimitW, when positive, counts intervals whose measured power
	// exceeded it (the paper's adherence view of a run).
	LimitW float64

	// Ticks is the number of recorded intervals; Duration their
	// virtual-time sum.
	Ticks    int
	Duration time.Duration
	// Transitions counts p-state changes applied; FailedTransitions
	// attempts a faulted actuator abandoned.
	Transitions       int
	FailedTransitions int
	// StallTime sums halted time (transition latency + modulated-clock
	// stop fraction); BusyTime sums compute time.
	StallTime time.Duration
	BusyTime  time.Duration
	// EnergyJ integrates true power over the run.
	EnergyJ float64
	// Violations counts intervals with measured power above LimitW.
	Violations int
	// Degradations counts every degradation event on the bus (injected
	// faults plus governor graceful-degradation responses).
	Degradations int
	// StageNanos sums per-stage wall-clock in machine.StageNames
	// order; all zero unless the session enabled stage timing.
	StageNanos [machine.NumStages]int64
	// Done reports whether the run's result was finalized.
	Done bool
}

// OnTick implements machine.Hook.
func (c *Collector) OnTick(ts machine.TickState) {
	c.Ticks++
	c.Duration += ts.Used
	c.StallTime += ts.Stall
	c.BusyTime += ts.Busy
	c.EnergyJ += ts.TruePowerW * ts.Used.Seconds()
	if c.LimitW > 0 && ts.MeasuredPowerW > c.LimitW {
		c.Violations++
	}
	for i, n := range ts.StageNanos {
		c.StageNanos[i] += n
	}
}

// OnTransition implements machine.Hook.
func (c *Collector) OnTransition(tr machine.Transition) {
	if tr.OK {
		c.Transitions++
	} else {
		c.FailedTransitions++
	}
}

// OnDegradation implements machine.Hook.
func (c *Collector) OnDegradation(trace.Degradation) { c.Degradations++ }

// OnDone implements machine.Hook.
func (c *Collector) OnDone(*trace.Run) { c.Done = true }

// AvgPowerW returns time-weighted average true power over the
// collected intervals.
func (c *Collector) AvgPowerW() float64 {
	if c.Duration <= 0 {
		return 0
	}
	return c.EnergyJ / c.Duration.Seconds()
}

// ViolationFrac returns the fraction of intervals over LimitW.
func (c *Collector) ViolationFrac() float64 {
	if c.Ticks == 0 {
		return 0
	}
	return float64(c.Violations) / float64(c.Ticks)
}

// StageTotal returns the summed wall-clock across all stages.
func (c *Collector) StageTotal() time.Duration {
	var n int64
	for _, v := range c.StageNanos {
		n += v
	}
	return time.Duration(n)
}

// Print writes the collected counters as an aligned table; per-stage
// wall-clock rows appear only when timing was enabled.
func (c *Collector) Print(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("engine metrics:\n"); err != nil {
		return err
	}
	rows := []struct {
		k, v string
	}{
		{"ticks", fmt.Sprintf("%d", c.Ticks)},
		{"virtual time", fmt.Sprintf("%.2fs", c.Duration.Seconds())},
		{"transitions", fmt.Sprintf("%d", c.Transitions)},
		{"failed transitions", fmt.Sprintf("%d", c.FailedTransitions)},
		{"stall time", fmt.Sprintf("%.1fms", float64(c.StallTime)/float64(time.Millisecond))},
		{"busy time", fmt.Sprintf("%.2fs", c.BusyTime.Seconds())},
		{"energy", fmt.Sprintf("%.1fJ", c.EnergyJ)},
		{"avg power", fmt.Sprintf("%.2fW", c.AvgPowerW())},
		{"degradations", fmt.Sprintf("%d", c.Degradations)},
	}
	if c.LimitW > 0 {
		rows = append(rows, struct{ k, v string }{
			"violations", fmt.Sprintf("%d (%.1f%% of intervals over %.1fW)", c.Violations, c.ViolationFrac()*100, c.LimitW),
		})
	}
	for _, r := range rows {
		if err := p("  %-20s %s\n", r.k, r.v); err != nil {
			return err
		}
	}
	if total := c.StageTotal(); total > 0 {
		if err := p("  per-stage wall-clock (total %v):\n", total.Round(time.Microsecond)); err != nil {
			return err
		}
		for i, n := range c.StageNanos {
			d := time.Duration(n)
			if err := p("    %-10s %10v  %5.1f%%\n", machine.StageNames[i], d.Round(time.Microsecond), 100*float64(n)/float64(total)); err != nil {
				return err
			}
		}
	}
	return nil
}
