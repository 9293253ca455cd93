package cluster

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"aapm/internal/metrics"
	"aapm/internal/telemetry"
)

// stepper owns the per-tick stepping work. Nodes are statically
// sharded: worker k steps nodes k, k+workers, k+2*workers, … so a
// node is stepped by the same goroutine for the whole run and no two
// workers ever touch the same node state, stepped flag or error slot
// — the shards step disjoint node lanes of one BatchState, which the
// engine's concurrency contract permits. The coordinator reads
// stepped and the engine's per-node errors only after the tick
// barrier.
type stepper struct {
	workers int
	n       int
	// step advances node i by one interval if it is still active,
	// reporting whether it was stepped (the engine's StepNode, behind
	// the control plane's offline gate when one is attached).
	step func(i int) bool
	// stepped[i] records that node i was active at tick start and was
	// stepped this tick. Entry i is written only by the worker owning
	// shard i%workers.
	stepped []bool
	// wall[k] aggregates worker k's per-tick shard wall-clock (ticks
	// where the shard had at least one active node). Each entry is
	// written only by its owning worker; the coordinator merges them
	// into Result.TickWall after the run.
	wall []metrics.WallClock
	// shardWall[k], when telemetry is enabled, receives the same
	// samples as a labeled histogram series.
	shardWall []*telemetry.Series
}

// shard steps worker k's nodes for one tick, timing the shard when it
// did any work.
func (st *stepper) shard(k int) {
	start := time.Now()
	any := false
	for i := k; i < st.n; i += st.workers {
		if st.step(i) {
			any = true
			st.stepped[i] = true
		}
	}
	if any {
		d := time.Since(start)
		st.wall[k].Add(d)
		if st.shardWall != nil {
			st.shardWall[k].Observe(d.Seconds())
		}
	}
}

// workerPool is a persistent set of stepping goroutines, spawned once
// per cluster run instead of per tick: a run is millions of ticks and
// per-tick goroutine churn would dwarf the stepping work. The tick
// handoff is a generation-counter barrier rather than channels — a
// node step is a few hundred nanoseconds, so two channel operations
// per worker per tick would cost more than the work being
// parallelized. Workers spin (yielding to the scheduler) on the
// generation counter, step their shard when it advances, and bump the
// done counter; the coordinator releases a tick by advancing the
// generation and waits until every worker reported.
//
// The spin is bounded: after spinYields fruitless yields a waiter
// parks on a sync.Cond (workers on wake, the coordinator on idle)
// instead of burning its core, so a fleet-scale process with many
// pools — or a pool idling between reallocation epochs while the
// coordinator does post-barrier work — costs nothing while blocked.
// The generation advance and the final done-count report happen with
// the lock held around the matching signal, so a waiter that
// re-checks its condition under the lock can never miss the wakeup.
// The fast path is unchanged: an active tick hands off through the
// same atomics and never touches the mutex.
//
// The sequentially consistent atomics give the happens-before edges
// the determinism argument needs: workers' writes (node lanes,
// stepped flags, errors) are made before the done-counter add and so
// visible to the coordinator once it observes the full count, and the
// coordinator's writes (SetLimit, cleared stepped flags) are made
// before the generation advance and so visible to every worker that
// observes the new generation. Parking changes only who is scheduled
// when — the barrier order, and therefore every trace byte, is
// identical to the pure-spin pool.
type workerPool struct {
	workers int
	gen     atomic.Uint64 // current tick generation
	done    atomic.Int64  // workers finished with the current generation
	closed  atomic.Bool   // set before the final generation advance

	mu   sync.Mutex
	wake sync.Cond // workers: gen advanced
	idle sync.Cond // coordinator: all workers reported
}

// spinYields bounds the optimistic spin before a waiter parks: long
// enough that a barrier partner mid-shard on another core is caught
// without a syscall, short enough that an idle pool leaves the CPU in
// microseconds.
const spinYields = 64

// newWorkerPool starts one goroutine per worker; each waits for the
// generation to advance, runs fn with its worker index, and reports
// done. Each worker goroutine carries pprof labels — the pool scope
// plus its shard range — layered over whatever labels ctx already
// carries (the serve scheduler's tenant/job labels propagate through
// here), so CPU profiles attribute stepping time to tenant, job,
// coordinator and shard. Labels do not cross goroutine creation on
// their own, hence the explicit SetGoroutineLabels per worker.
func newWorkerPool(ctx context.Context, scope string, workers int, fn func(worker int)) *workerPool {
	if ctx == nil {
		ctx = context.Background()
	}
	p := &workerPool{workers: workers}
	p.wake.L = &p.mu
	p.idle.L = &p.mu
	for k := 0; k < workers; k++ {
		go func(k int) {
			lctx := pprof.WithLabels(ctx, pprof.Labels(
				"aapm_pool", scope,
				"aapm_shard", fmt.Sprintf("%d/%d", k, workers),
			))
			pprof.SetGoroutineLabels(lctx)
			var seen uint64
			for {
				g := p.gen.Load()
				if g == seen {
					p.awaitGen(seen)
					continue
				}
				if p.closed.Load() {
					return
				}
				seen = g
				fn(k)
				if p.done.Add(1) == int64(p.workers) {
					// Last reporter: the coordinator may have parked.
					p.mu.Lock()
					p.idle.Signal()
					p.mu.Unlock()
				}
			}
		}(k)
	}
	return p
}

// awaitGen blocks until the generation moves past seen: a bounded
// spin first, then parked on wake.
func (p *workerPool) awaitGen(seen uint64) {
	for i := 0; i < spinYields; i++ {
		runtime.Gosched()
		if p.gen.Load() != seen {
			return
		}
	}
	p.mu.Lock()
	for p.gen.Load() == seen {
		p.wake.Wait()
	}
	p.mu.Unlock()
}

// tick runs one stepping round: release every worker, then wait for
// all of them (the barrier).
func (p *workerPool) tick() {
	p.done.Store(0)
	p.advance()
	for i := 0; i < spinYields; i++ {
		if p.done.Load() == int64(p.workers) {
			return
		}
		runtime.Gosched()
	}
	p.mu.Lock()
	for p.done.Load() != int64(p.workers) {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// advance publishes the next generation and wakes any parked workers.
// The advance happens under the lock so a worker that checked the
// generation and decided to park cannot miss the broadcast.
func (p *workerPool) advance() {
	p.mu.Lock()
	p.gen.Add(1)
	p.wake.Broadcast()
	p.mu.Unlock()
}

// close terminates the workers. The pool must be idle (no tick in
// flight).
func (p *workerPool) close() {
	p.closed.Store(true)
	p.advance()
}
