package cluster

import (
	"time"

	"aapm/internal/obs"
)

// coordSpans records a coordinator run's epoch-granularity spans on
// the job trace carried by the run's context: one "reallocate" span
// per level per epoch and one "shard-step" span per worker covering
// the ticks between reallocations. It exists only when the trace is
// sampled — a nil *coordSpans is the off state, every method is
// nil-safe, and nothing here runs per tick — so with tracing off (or
// unsampled) the coordinator's hot loop is unchanged and the
// tracing-off overhead budget holds.
type coordSpans struct {
	tr       *obs.Trace
	periodUS float64 // virtual microseconds per monitoring interval
	st       *stepper
	workers  int
	wallMark []time.Duration // st.tally[k].wall.Total at the last boundary
	from     int             // tick the current shard-span window opened at

	// levelWall/levelCount track the per-level allocation wall
	// between epochs; levelCount[l] is the entity count at level l.
	levelWall  []time.Duration
	levelCount []int
}

// newCoordSpans builds the span recorder for a tree whose level l has
// levelCount[l] entities, or nil when the trace is absent or
// unsampled.
func newCoordSpans(tr *obs.Trace, period time.Duration, st *stepper, workers int, levelCount []int) *coordSpans {
	if !tr.Sampled() {
		return nil
	}
	return &coordSpans{
		tr:         tr,
		periodUS:   float64(period) / float64(time.Microsecond),
		st:         st,
		workers:    workers,
		wallMark:   make([]time.Duration, workers),
		levelWall:  make([]time.Duration, len(levelCount)),
		levelCount: levelCount,
	}
}

// active reports whether spans are being recorded (call sites that pay
// setup cost — a time.Now before an Allocate — guard on it).
func (c *coordSpans) active() bool { return c != nil }

// levelDur folds one distribute call's wall into its level.
func (c *coordSpans) levelDur(l int, d time.Duration) {
	if c == nil {
		return
	}
	c.levelWall[l] += d
}

// fleetEpoch records the reallocation at tick: one reallocate span
// per level (wall from the distribute recursion, deepest level first
// so the Perfetto nesting reads root-outward) and the window's
// shard-step spans. The level-0 span also carries the epoch's demand
// aggregates, read from the node accumulators before the caller
// resets them.
func (c *coordSpans) fleetEpoch(tick int, budgetW float64, acc []nodeAcc) {
	if c == nil {
		return
	}
	for l := range c.levelWall {
		attrs := map[string]float64{
			"budget_w": budgetW,
			"level":    float64(l),
			"entities": float64(c.levelCount[l]),
		}
		if l == 0 {
			var sumW, sumDPC float64
			var cnt int
			for i := range acc {
				sumW += acc[i].recentW
				sumDPC += acc[i].recentDPC
				cnt += int(acc[i].recentN)
			}
			if cnt > 0 {
				attrs["avg_node_power_w"] = sumW / float64(cnt)
				attrs["avg_node_dpc"] = sumDPC / float64(cnt)
			}
		}
		c.tr.Record(obs.Span{
			Name:      "reallocate",
			VirtUS:    float64(tick) * c.periodUS,
			Start:     time.Now(),
			WallDurUS: float64(c.levelWall[l]) / float64(time.Microsecond),
			Attrs:     attrs,
		})
		c.levelWall[l] = 0
	}
	c.shardSpans(tick)
}

// shardSpans closes the current window at tick: one span per worker
// whose wall is the shard-stepping time accumulated since the last
// boundary (diffed off the stepper's per-worker aggregates, which the
// workers already maintain — no extra work on the stepping path).
func (c *coordSpans) shardSpans(tick int) {
	for k := 0; k < c.workers; k++ {
		total := c.st.tally[k].wall.Total
		d := total - c.wallMark[k]
		c.wallMark[k] = total
		c.tr.Record(obs.Span{
			Name:      "shard-step",
			VirtUS:    float64(c.from) * c.periodUS,
			VirtDurUS: float64(tick-c.from) * c.periodUS,
			Start:     time.Now(),
			WallDurUS: float64(d) / float64(time.Microsecond),
			Attrs: map[string]float64{
				"worker":  float64(k),
				"workers": float64(c.workers),
				"ticks":   float64(tick - c.from),
			},
		})
	}
	c.from = tick
}

// finish closes the final partial window when the run ends at tick.
func (c *coordSpans) finish(tick int) {
	if c == nil || tick <= c.from {
		return
	}
	c.shardSpans(tick)
}
