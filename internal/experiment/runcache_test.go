package experiment

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"aapm/internal/machine"
	"aapm/internal/model"
	"aapm/internal/trace"
)

// countingCtx returns a scaled-down, median-of-three context whose
// Observer counts executed runs.
func countingCtx(t *testing.T, par int, runs *atomic.Int64) *Context {
	t.Helper()
	c, err := NewContext(Options{
		Seed: 3, ScaleDown: 16, Repeats: 3, Parallelism: par,
		Observer: func(string, string) machine.Hook {
			runs.Add(1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameTotals reports whether two runs carry bit-identical totals.
func sameTotals(a, b *trace.Run) bool {
	bits := math.Float64bits
	return a.Workload == b.Workload && a.Policy == b.Policy &&
		a.Ticks == b.Ticks && a.Duration == b.Duration &&
		a.StallTime == b.StallTime && a.BusyTime == b.BusyTime &&
		bits(a.Instructions) == bits(b.Instructions) &&
		bits(a.EnergyJ) == bits(b.EnergyJ) &&
		bits(a.MeasuredEnergyJ) == bits(b.MeasuredEnergyJ) &&
		a.Transitions == b.Transitions && a.FailedTransitions == b.FailedTransitions &&
		reflect.DeepEqual(a.Degradations, b.Degradations) &&
		reflect.DeepEqual(a.DegradationCounts, b.DegradationCounts)
}

// TestTotalsOnlyMatchesRows pins the rows-or-totals choice: for
// static, PM and PS keys a totals-only run keeps no rows and carries
// exactly the totals of the row-retaining run on a fresh context, and
// a rows request after a totals-only cache hit runs the key again with
// rows and the same totals.
func TestTotalsOnlyMatchesRows(t *testing.T) {
	type req func(c *Context, rows bool) (*trace.Run, error)
	keys := map[string]req{
		"static": func(c *Context, rows bool) (*trace.Run, error) { return c.staticRun("ammp", 1400, rows) },
		"pm":     func(c *Context, rows bool) (*trace.Run, error) { return c.pmRun("galgel", 13.5, rows) },
		"ps":     func(c *Context, rows bool) (*trace.Run, error) { return c.psRun("art", 0.8, model.PaperExponent, rows) },
	}
	for name, run := range keys {
		var nTotals, nRows atomic.Int64
		totalsCtx := countingCtx(t, 2, &nTotals)
		rowsCtx := countingCtx(t, 2, &nRows)

		tot, err := run(totalsCtx, totalsOnly)
		if err != nil {
			t.Fatal(err)
		}
		full, err := run(rowsCtx, withRows)
		if err != nil {
			t.Fatal(err)
		}
		if len(tot.Rows) != 0 {
			t.Errorf("%s: totals-only run kept %d rows", name, len(tot.Rows))
		}
		if len(full.Rows) == 0 || len(full.Rows) != full.Ticks {
			t.Errorf("%s: row-retaining run has %d rows for %d ticks", name, len(full.Rows), full.Ticks)
		}
		if !sameTotals(tot, full) {
			t.Errorf("%s: totals differ:\ntotals-only %+v\nwith rows   %+v", name, *tot, *full)
		}

		// A cached totals-only run serves a totals request ...
		again, err := run(totalsCtx, totalsOnly)
		if err != nil {
			t.Fatal(err)
		}
		if again != tot || nTotals.Load() != 3 {
			t.Errorf("%s: totals request after a totals-only run re-ran it (%d runs)", name, nTotals.Load())
		}
		// ... and a rows request runs the key again, with rows.
		upgraded, err := run(totalsCtx, withRows)
		if err != nil {
			t.Fatal(err)
		}
		if len(upgraded.Rows) != len(full.Rows) || !sameTotals(upgraded, tot) {
			t.Errorf("%s: rows request after a totals-only hit: %d rows (want %d), totals equal %v",
				name, len(upgraded.Rows), len(full.Rows), sameTotals(upgraded, tot))
		}
		if nTotals.Load() != 6 {
			t.Errorf("%s: %d runs after the rows request, want 6", name, nTotals.Load())
		}
		// The run with rows now serves both kinds of request.
		for _, rows := range []bool{totalsOnly, withRows} {
			if r, err := run(totalsCtx, rows); err != nil || r != upgraded {
				t.Errorf("%s: request (rows=%v) after the rows run not served from it (err %v)", name, rows, err)
			}
		}
		if nTotals.Load() != 6 {
			t.Errorf("%s: %d runs, want 6", name, nTotals.Load())
		}
	}
}

// TestRunOncePerKey pins the single-flight cache: Figure 6 queues the
// static run of a frequency once per limit that maps to it, and with
// eight workers every key must still execute exactly once per
// repetition.
func TestRunOncePerKey(t *testing.T) {
	var runs atomic.Int64
	c := countingCtx(t, 8, &runs)
	t4, err := c.TableIVStaticFrequencies()
	if err != nil {
		t.Fatal(err)
	}
	freqs := map[int]bool{2000: true}
	for _, l := range PowerLimits() {
		f, err := t4.StaticFreqFor(l)
		if err != nil {
			t.Fatal(err)
		}
		freqs[f] = true
	}
	if len(freqs) >= len(PowerLimits())+1 {
		t.Fatalf("every limit maps to its own frequency (%v): the test needs shared keys", freqs)
	}
	if _, err := c.Fig6PerfVsPowerLimit(); err != nil {
		t.Fatal(err)
	}
	keys := len(c.SuiteNames()) * (len(freqs) + len(PowerLimits()))
	if got := runs.Load(); got != int64(3*keys) {
		t.Errorf("executed %d runs, want 3 x %d distinct keys = %d", got, keys, 3*keys)
	}
	if len(c.runs) != keys {
		t.Errorf("cached %d keys, want %d", len(c.runs), keys)
	}
}
