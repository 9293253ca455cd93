package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"aapm/internal/machine"
	"aapm/internal/telemetry"
)

// cacheLine is the coherence unit the stepping layout keeps workers
// apart on (64 bytes on the x86-64 and arm64 hosts this targets).
const cacheLine = 64

// shardAlign is the node granularity of shard boundaries: a boundary
// on a multiple of 64 nodes falls on a cache-line edge of every
// per-node lane, the 1-byte ones included.
const shardAlign = 64

// shardBounds splits n nodes into workers contiguous ranges: worker k
// owns [b[k], b[k+1]). Boundaries are rounded to multiples of
// shardAlign so no cache line of per-node state is written by two
// workers. A fleet too small to give every worker a whole 64-node
// unit splits at node granularity instead: its lanes span a handful
// of lines, and every worker still steps a share.
func shardBounds(n, workers int) []int {
	align := shardAlign
	if n < align*workers {
		align = 1
	}
	units := (n + align - 1) / align
	b := make([]int, workers+1)
	for k := range b {
		b[k] = min(k*units/workers*align, n)
	}
	return b
}

// nodeAcc is one node's epoch accumulator, folded by the worker that
// steps the node right after the step, while the node's lanes are
// still in its cache. One packed 32-byte record per node (two per
// cache line) instead of parallel slices: the fold touches one line
// per pair of nodes, and shard boundaries on 64-node multiples keep
// those lines worker-private.
type nodeAcc struct {
	// recentW and recentDPC sum the usable (finite, non-negative)
	// measured power and observed decode rate over the epoch; recentN
	// counts the usable ticks (bounded by the machine's MaxTicks, so
	// int32 holds it). recentN == 0 at a reallocation means the node
	// produced no usable observation the whole epoch.
	recentW   float64
	recentDPC float64
	// lastSeq is the engine sequence at the node's last fold. It
	// equals BatchState.Seq after every regular step; the intervals a
	// coasting node adds past it are folded before its next regular
	// step and on every epoch tick (stepper.fold).
	lastSeq uint64
	recentN int32
	// fresh records that the sequence advanced at all this epoch.
	fresh bool
}

// reset starts a new epoch; lastSeq carries over.
func (a *nodeAcc) reset() {
	a.recentW, a.recentDPC, a.recentN, a.fresh = 0, 0, 0, false
}

// shardTally is worker k's report, its stepper and its blocks, padded
// to cache lines of its own so the workers' per-tick writes never
// share one. The pad leads: a zero-size last field would add a word.
type shardTally struct {
	_ [(cacheLine - unsafe.Sizeof(shardState{})%cacheLine) % cacheLine]byte
	shardState
}

// shardState is the content of a shardTally.
type shardState struct {
	// wall aggregates the worker's per-tick shard wall-clock (ticks
	// where the shard stepped at least one node); the coordinator
	// copies it into Result.WorkerWall[k] after the run.
	wall WallClock
	// stepped counts the nodes the shard stepped this tick, coast
	// ticks included; failed flags that one of them returned an error,
	// and changed that the shard wrote a power entry with new bits.
	stepped int
	failed  bool
	changed bool
	// tick counts the shard's ticks: the first is 1.
	tick int32
	// skips counts the blocks the shard passed over, one per block per
	// tick.
	skips int64
	// step steps the worker's nodes: it holds the tick record (the
	// interval's sample and the govern input), written for every node
	// the worker steps.
	step machine.Stepper
	// blocks splits the worker's range into blockSize-node blocks, in
	// index order.
	blocks []block
}

// blockSize is the node count of a block: the unit a shard passes over
// while all its nodes coast. A shard's range starts on a multiple of
// it (shardAlign), so no block spans two workers; a range smaller than
// a block, in a fleet too small to align, is one block.
const blockSize = shardAlign

// block is the state of blockSize consecutive nodes of one shard: a
// shard visits the block's nodes only on the tick it is due and, in
// between, credits each of its coasting nodes one step per tick.
type block struct {
	// next is the shard tick the block is due on, last the tick of its
	// latest visit.
	next, last int32
	// live counts the nodes not done after the latest visit: while the
	// block is not due, each of them coasts.
	live int32
	// changed records that the latest visit wrote a power entry with
	// new bits.
	changed bool
}

// stepper owns the per-tick stepping work. Each worker owns one
// contiguous node range of the batch (shardBounds) for the whole run,
// steps it through its own machine.Stepper and, per node it steps,
// folds the fresh observation into the node's epoch accumulator and
// this tick's power lane — all writes to lines no other worker
// touches, as the engine's concurrency contract (disjoint index
// ranges, one Stepper per goroutine) permits. The coordinator reads the tallies,
// accumulators and power lane only after the tick barrier, and keeps
// only the cross-node reads: the index-ordered power sums and, when a
// shard flagged one, the first-error-by-index scan.
type stepper struct {
	bs *machine.BatchState
	// epochFold, set by the coordinator before it releases a tick that
	// ends with a reallocation, has every worker visit every block and
	// fold all its nodes' coast intervals after stepping, so the epoch
	// reads whole accumulators and current engine state.
	epochFold bool
	// wakeAll, set by the coordinator for the tick after its epoch
	// work, has every worker visit every block: that work may have
	// written any lane or node override.
	wakeAll bool
	// offline, when a control plane is attached, gates stepping: an
	// offlined node is skipped like a finished one.
	offline []NodeOverride
	bounds  []int
	acc     []nodeAcc
	// power[i] is node i's usable measured power this tick, or +0 when
	// the node did not contribute (not stepped, no fresh interval, or
	// an unusable reading). A coast tick repeats the node's last
	// interval, so it leaves the entry as it is. Summed in index order
	// post-barrier, the +0 entries leave every float bit of the sum as
	// it would be without them.
	power []float64
	tally []shardTally
	// shardWall[k], when telemetry is enabled, receives worker k's
	// shard wall samples as a labeled histogram series.
	shardWall []*telemetry.Series
}

func newStepper(bs *machine.BatchState, offline []NodeOverride, workers int) *stepper {
	n := bs.Len()
	st := &stepper{
		bs:      bs,
		offline: offline,
		bounds:  shardBounds(n, workers),
		acc:     make([]nodeAcc, n),
		power:   make([]float64, n),
		tally:   make([]shardTally, workers),
	}
	for k := range st.tally {
		t := &st.tally[k]
		t.step = bs.NewStepper()
		t.blocks = make([]block, (st.bounds[k+1]-st.bounds[k]+blockSize-1)/blockSize)
	}
	return st
}

// shard steps worker k's nodes for one tick and folds each stepped
// node's observation, timing the shard when it did any work. It
// visits a block only when it is due (see visit) or the coordinator
// has every block visited; a block it passes over has only coasting
// nodes and finished ones, whose power entries stay as they are, and
// adds its coasting nodes to the stepped count.
func (st *stepper) shard(k int) {
	start := time.Now()
	t := &st.tally[k]
	t.tick++
	now, all := t.tick, st.epochFold || st.wakeAll
	stepped, failed, changed := 0, false, false
	lo, hi := st.bounds[k], st.bounds[k+1]
	for j := range t.blocks {
		blk := &t.blocks[j]
		if !all && now < blk.next {
			stepped += int(blk.live)
			t.skips++
			continue
		}
		blo := lo + j*blockSize
		s, f := st.visit(t, blk, blo, min(blo+blockSize, hi))
		stepped += s
		failed = failed || f
		changed = changed || blk.changed
	}
	if st.epochFold {
		st.foldShard(k)
	}
	t.stepped, t.failed, t.changed = stepped, failed, changed
	if stepped > 0 {
		d := time.Since(start)
		t.wall.Add(d)
		if st.shardWall != nil {
			st.shardWall[k].Observe(d.Seconds())
		}
	}
}

// visit steps block blk, nodes [lo, hi), on shard tick t.tick. Each
// coasting node first gets every tick since the block's latest visit
// in one Coast call. Only a node refreshed by this tick contributes:
// one that stepped into completion without emitting an interval would
// otherwise replay its previous tick's power. A coast tick touches
// neither the node's accumulator nor its power entry; its interval is
// folded later.
//
// The block is next due one tick after the end of its shortest coast.
// It is due on the next tick when one of its nodes will step
// regularly, is offline, or is done with a power entry still to clear.
// visit returns the nodes it stepped and whether one of them failed.
func (st *stepper) visit(t *shardTally, blk *block, lo, hi int) (stepped int, failed bool) {
	bs, acc, power, offline := st.bs, st.acc, st.power, st.offline
	now := t.tick
	n := int(now - blk.last)
	next := int32(math.MaxInt32)
	live, changed := int32(0), false
	for i := lo; i < hi; i++ {
		var w float64
		if offline != nil && offline[i] == NodeOffline {
			// Not stepped: the node contributes +0, and its coast ends
			// so that its first tick back in service is a regular step
			// that writes its entry.
			t.step.EndCoast(i)
			next = now + 1
		} else if left := t.step.Coast(i, n); left >= 0 {
			stepped++
			live++
			next = min(next, now+1+int32(left))
			continue
		} else {
			// The node's coast, if any, ended with the tick before this
			// one. Its coast intervals read its current power, which
			// the step is about to replace.
			a := &acc[i]
			st.fold(a, i)
			if t.step.StepRegular(i) {
				stepped++
				if bs.NodeErr(i) != nil {
					failed = true
				} else {
					w = st.fold(a, i)
				}
			}
			switch {
			case !bs.NodeDone(i):
				live++
				next = min(next, now+1+int32(t.step.Coast(i, 0)))
			case math.Float64bits(w) != 0:
				// Done with this tick's power in its entry, which the
				// next tick clears.
				next = now + 1
			}
		}
		if math.Float64bits(w) != math.Float64bits(power[i]) {
			power[i] = w
			changed = true
		}
	}
	blk.next, blk.last, blk.live, blk.changed = next, now, live, changed
	return stepped, failed
}

// sumGroups re-sums groupW[g], the power entries of nodes
// [g·fanout, (g+1)·fanout) in index order, for each group that overlaps
// a block whose visit this tick wrote an entry with new bits. Every
// other group keeps the bits of its last sum, which adding the same
// entries again would give.
func (st *stepper) sumGroups(groupW []float64, fanout int) {
	last := -1 // the last group re-summed: blocks come in index order
	for k := range st.tally {
		t := &st.tally[k]
		lo, hi := st.bounds[k], st.bounds[k+1]
		for j, blk := range t.blocks {
			if blk.last != t.tick || !blk.changed {
				continue
			}
			blo := lo + j*blockSize
			bhi := min(blo+blockSize, hi)
			for g := max(blo/fanout, last+1); g <= (bhi-1)/fanout; g++ {
				var sum float64
				for _, w := range st.power[g*fanout : min((g+1)*fanout, len(st.power))] {
					sum += w
				}
				groupW[g] = sum
				last = g
			}
		}
	}
}

// fold folds node i's intervals since a.lastSeq into its accumulator
// and returns the power the latest one contributes to the tick's sum
// (+0 for none). Every such interval reads the node's current measured
// power and decode rate: there is one when the node has just stepped,
// and more when it coasted since its last fold, all repeating one
// reading. Each adds its own terms, in tick order, to sums kept in
// locals.
func (st *stepper) fold(a *nodeAcc, i int) float64 {
	seq := st.bs.Seq(i)
	if seq == a.lastSeq {
		return 0
	}
	d := seq - a.lastSeq
	a.lastSeq, a.fresh = seq, true
	w, dpc := st.bs.LastPowerW(i), st.bs.LastDPC(i)
	if !usable(w) || !usable(dpc) {
		return 0
	}
	rw, rd := a.recentW, a.recentDPC
	for j := uint64(0); j < d; j++ {
		rw += w
		rd += dpc
	}
	a.recentW, a.recentDPC = rw, rd
	a.recentN += int32(d)
	return w
}

// foldShard folds every node of worker k's shard up to its current
// interval.
func (st *stepper) foldShard(k int) {
	for i := st.bounds[k]; i < st.bounds[k+1]; i++ {
		st.fold(&st.acc[i], i)
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
// errors, epoch accumulators, the power lane, their tallies) are made
// before the done-counter add and so visible to the coordinator once
// it observes the full count, and the coordinator's writes (SetLimit,
// node overrides, accumulator resets) are made before the generation
// advance and so visible to every worker that observes the new
// generation. Parking changes only who is scheduled
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
