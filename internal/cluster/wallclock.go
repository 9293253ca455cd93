package cluster

import "time"

// WallClock aggregates host wall-clock samples of a repeated
// operation — e.g. the coordinator's per-tick step/aggregate/
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
