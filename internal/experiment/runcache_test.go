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
	spec := func(workload string, s func(c *Context) runSpec) req {
		return func(c *Context, rows bool) (*trace.Run, error) { return c.run(rows, workload, s(c)) }
	}
	keys := map[string]req{
		"static": spec("ammp", func(c *Context) runSpec { return c.staticSpec(1400) }),
		"pm":     spec("galgel", func(*Context) runSpec { return pmSpec(13.5) }),
		"ps":     spec("art", func(*Context) runSpec { return psSpec(0.8, model.PaperExponent) }),
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

// TestEntryRunCounts pins which runs each paper entry requests, and
// whether it reads their rows: in registry order on one context, the
// cumulative executed runs (Observer calls, three per key at Repeats 3)
// and cached keys after each entry. adherence re-runs with rows the
// 206 PM keys that Figure 6 ran totals-only (Figure 5 already ran two
// with rows), so its executed count grows by 618 while the cache does
// not; a plan that declares every entry's runs up front lowers that
// number on purpose.
func TestEntryRunCounts(t *testing.T) {
	want := map[string]struct{ runs, keys int }{
		"fig1":      {78, 26},
		"fig2":      {96, 32},
		"table1":    {96, 32},
		"table2":    {96, 32},
		"table3":    {96, 32},
		"table4":    {96, 32},
		"fig5":      {102, 34},
		"fig6":      {936, 312},
		"fig7":      {936, 312},
		"adherence": {1554, 312},
		"fig8":      {1557, 313},
		"fig9":      {1944, 442},
		"fig10":     {1944, 442},
		"fig11":     {1953, 445},
		"baselines": {2187, 523},
	}
	var runs atomic.Int64
	c := countingCtx(t, 4, &runs)
	seen := 0
	for _, e := range Registry() {
		w, ok := want[e.Name]
		if !ok {
			continue
		}
		seen++
		if _, err := e.Run(c); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if got := runs.Load(); got != int64(w.runs) || len(c.runs) != w.keys {
			t.Errorf("after %s: %d runs executed, %d keys cached; want %d and %d",
				e.Name, got, len(c.runs), w.runs, w.keys)
		}
	}
	if seen != len(want) {
		t.Errorf("ran %d of the %d pinned entries", seen, len(want))
	}
	// The counts hold under a consistent rename; pin each spec kind's
	// key string too.
	for _, key := range []string{
		"ammp/static2000", "galgel/pm13.5", "art/ps0.80/e0.81", "art/ps0.80/e0.59",
		"gzip/ondemand", "gzip/cruise10", "gzip/cruise20",
	} {
		if c.runs[key] == nil {
			t.Errorf("no run cached under %q", key)
		}
	}
}
