package cluster

import (
	"testing"
	"time"
)

func TestWallClock(t *testing.T) {
	var w WallClock
	for _, d := range []time.Duration{3 * time.Microsecond, 9 * time.Microsecond, 6 * time.Microsecond} {
		w.Add(d)
	}
	if w.N != 3 || w.Total != 18*time.Microsecond {
		t.Errorf("N=%d Total=%v, want 3 and 18us", w.N, w.Total)
	}
}

// shardSteps sums the workers' shard-step counts: the ticks each
// worker stepped at least one node, over all workers.
func shardSteps(res *Result) int {
	steps := 0
	for _, w := range res.WorkerWall {
		steps += w.N
	}
	return steps
}
