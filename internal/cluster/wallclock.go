package cluster

import "time"

// WallClock aggregates host wall-clock samples of a repeated
// operation — e.g. the coordinator's per-tick step/aggregate/
// reallocate cycle, where it makes worker-pool speedups observable.
// Purely observational: wall-clock never feeds back into virtual time
// or policy decisions, so timed runs stay deterministic. The zero
// value is ready to use. Not safe for concurrent use.
type WallClock struct {
	// N is the number of samples; Total their sum.
	N     int
	Total time.Duration
}

// Add records one sample.
func (w *WallClock) Add(d time.Duration) {
	w.N++
	w.Total += d
}
