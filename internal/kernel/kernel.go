// Package kernel executes memory-reference kernels through the
// simulated cache hierarchy to characterize them from first
// principles.
//
// The MS-Loops microbenchmarks (package mloops) are defined as
// reference generators; this package runs them against the L1/L2/DRAM
// models and distills the result into the analytic phase parameters
// (package phase) the platform executes at scale. This keeps the
// model-training pipeline honest: the training data's cache behaviour
// is simulated, not asserted.
package kernel

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"aapm/internal/cache"
	"aapm/internal/memsim"
)

// Ref is one memory reference of a kernel operation.
type Ref struct {
	Addr  uint64
	Write bool
}

// Op is one loop iteration: its memory references plus the retired
// instructions and core (L1-hit) cycles it accounts for.
type Op struct {
	Refs       []Ref
	Instrs     float64
	CoreCycles float64
}

// Generator produces a kernel's reference stream.
type Generator interface {
	// Name labels the kernel.
	Name() string
	// Reset rewinds the generator to the start of the loop.
	Reset()
	// Next returns the next operation. Generators cycle indefinitely
	// over their footprint. Op.Refs is valid only until the next call:
	// a generator may reuse its backing array, so callers must not
	// keep the slice.
	Next() Op
}

// Block is a run of consecutive ops that each cost Instrs and
// CoreCycles and issue len(Refs)/Ops references.
type Block struct {
	// Refs holds the ops' references, op by op.
	Refs       []Ref
	Ops        int
	Instrs     float64
	CoreCycles float64
}

// BlockGenerator is implemented by generators that can emit several ops
// per call, which saves Characterize an interface call and an Op copy
// per op.
type BlockGenerator interface {
	// NextBlock returns the next ops of the stream Next would return, at
	// least one and at most max of them (max >= 1). Block.Refs is valid
	// only until the next call.
	NextBlock(max int) Block
}

// Bounded is implemented by generators whose references all fall in
// one address range. Bounds returns it as [lo, hi); lo >= hi promises
// nothing. For a generator with no period whose range fits in L1 at
// once, Characterize stops simulating once every line of it is
// resident: every later access hits L1.
type Bounded interface {
	Bounds() (lo, hi uint64)
}

// Periodic is implemented by generators whose reference stream
// repeats. Period promises that after Reset the Op stream repeats every
// Period() calls to Next: addresses, write flags, Instrs and CoreCycles
// alike. 0 means the stream has no period. Characterize uses the period
// to replay whole cycles through the prefetcher alone once the caches
// and DRAM repeat as well.
type Periodic interface {
	Period() int
}

// Level identifies where an access was served.
type Level int

// Hierarchy levels.
const (
	LevelL1 Level = iota + 1
	LevelL2
	LevelMem
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "MEM"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Hierarchy couples the two cache levels, the stream prefetcher and
// the DRAM model into the platform's memory system.
//
// Its counts are read from the parts' own statistics, which is exact as
// long as L2 and DRAM see only the accesses Access makes: an access is
// served by L1 if it hits L1, by L2 if it hits L2, by DRAM if it misses
// L2, and every DRAM access is a demand L2 miss, an L2 writeback or a
// prefetch fill.
type Hierarchy struct {
	L1   *cache.Cache
	L2   *cache.Cache
	Pref *cache.StreamPrefetcher
	Mem  *memsim.Memory

	steady steady   // Characterize's replay buffers, allocated on first use
	res    resident // the L1-resident shortcut's buffers, allocated on first use
}

// NewPentiumMHierarchy assembles the paper platform's memory system.
func NewPentiumMHierarchy() (*Hierarchy, error) {
	l1, err := cache.New(cache.PentiumML1D())
	if err != nil {
		return nil, fmt.Errorf("kernel: l1: %w", err)
	}
	l2, err := cache.New(cache.PentiumML2())
	if err != nil {
		return nil, fmt.Errorf("kernel: l2: %w", err)
	}
	mem, err := memsim.New(memsim.DDR333())
	if err != nil {
		return nil, fmt.Errorf("kernel: mem: %w", err)
	}
	pref, err := cache.NewStreamPrefetcher(l1.LineBytes(), 8, 2)
	if err != nil {
		return nil, fmt.Errorf("kernel: prefetcher: %w", err)
	}
	return &Hierarchy{L1: l1, L2: l2, Pref: pref, Mem: mem}, nil
}

// Access performs one data access and returns the serving level.
//
// A dirty line L1 evicts is dropped: its writeback reaches neither L2
// nor DRAM, so L2 writes back only lines that a write missing L1 dirtied
// (DAXPY-8MB records none). The recorded training set depends on this.
func (h *Hierarchy) Access(addr uint64, write bool) Level {
	if h.L1.Access(addr, write).Hit {
		return LevelL1
	}
	// L1 miss: consult L2 (demand), train the prefetcher.
	pfs := h.Pref.OnMiss(addr)
	if h.steady.logging {
		var issued uint64
		if len(pfs) > 0 {
			issued = 1
		}
		h.steady.log = append(h.steady.log, addr&^1|issued)
	}
	// A prefetch of a resident line does nothing; one of an absent
	// line reads it from DRAM before any writeback its fill causes.
	for _, pf := range pfs {
		if r := h.L2.Fill(pf); !r.Hit {
			h.Mem.Access(pf, h.L2.LineBytes())
			if r.Writeback {
				h.Mem.Access(r.WritebackAddr, h.L2.LineBytes())
			}
		}
	}
	res := h.L2.Access(addr, write)
	if res.Writeback {
		h.Mem.Access(res.WritebackAddr, h.L2.LineBytes())
	}
	if res.Hit {
		return LevelL2
	}
	h.Mem.Access(addr, h.L2.LineBytes())
	return LevelMem
}

// MemAccesses returns demand+writeback DRAM accesses (prefetches
// excluded): every L2 miss and every L2 writeback.
func (h *Hierarchy) MemAccesses() uint64 {
	l2 := h.L2.Stats()
	return l2.Misses + l2.Writebacks
}

// PrefetchMemAccesses returns DRAM accesses made on behalf of the
// prefetcher: every DRAM access but the demand and writeback ones.
func (h *Hierarchy) PrefetchMemAccesses() uint64 { return h.Mem.Stats().Accesses - h.MemAccesses() }

// Profile is the distilled characterization of a kernel window.
type Profile struct {
	// Instructions and CoreCycles accumulate the generator's own
	// accounting over the measured window.
	Instructions float64
	CoreCycles   float64
	// Served counts accesses by serving level.
	ServedL1, ServedL2, ServedMem uint64
	// MemTraffic is total DRAM accesses including writebacks and
	// prefetches.
	MemTraffic uint64
	// RowHitRate is the DRAM open-row hit fraction over the window.
	RowHitRate float64
}

// Accesses returns the total demand accesses in the window.
func (p Profile) Accesses() uint64 { return p.ServedL1 + p.ServedL2 + p.ServedMem }

// CPICore returns core cycles per instruction.
func (p Profile) CPICore() float64 {
	if p.Instructions == 0 {
		return 0
	}
	return p.CoreCycles / p.Instructions
}

// L2APKI returns L1 misses (L2 demand accesses) per kilo-instruction.
func (p Profile) L2APKI() float64 {
	if p.Instructions == 0 {
		return 0
	}
	return float64(p.ServedL2+p.ServedMem) / p.Instructions * 1000
}

// MemAPKI returns DRAM demand accesses per kilo-instruction.
func (p Profile) MemAPKI() float64 {
	if p.Instructions == 0 {
		return 0
	}
	return float64(p.ServedMem) / p.Instructions * 1000
}

// Characterize runs the generator for warmup ops (to populate caches)
// and then a measured window of ops, returning the window's Profile.
// The Profile and every counter and state of h come out exactly as a
// full simulation of every access leaves them, whatever shortcut the
// generator's optional interfaces allow:
//
//   - If g implements Periodic, Characterize logs a cycle's L1 misses
//     and compares the caches and DRAM at its end with their state at
//     its start. Once the two match, each later cycle feeds just the
//     prefetcher the logged misses, for as long as they issue
//     prefetches as logged (see steady).
//   - Otherwise, if g implements Bounded and its range fits in L1, the
//     accesses after every line of the range is resident are only
//     counted (see resident).
//   - If g implements BlockGenerator, its ops are read in blocks.
func Characterize(g Generator, h *Hierarchy, warmup, window int) (Profile, error) {
	if h == nil {
		return Profile{}, fmt.Errorf("kernel: nil hierarchy")
	}
	if warmup < 0 {
		return Profile{}, fmt.Errorf("kernel: negative warmup %d", warmup)
	}
	if window <= 0 {
		return Profile{}, fmt.Errorf("kernel: non-positive window %d", window)
	}
	g.Reset()
	src := source{g: g}
	src.blocks, _ = g.(BlockGenerator)
	period := 0
	if pg, ok := g.(Periodic); ok {
		period = pg.Period()
	}
	h.res.on, h.res.passes = false, 0
	var p Profile
	var before counters
	if period > 0 {
		before = h.fastForward(src, period, warmup, window, &p)
	} else {
		if bg, ok := g.(Bounded); ok {
			h.bound(bg.Bounds())
		}
		h.run(src, warmup, nil)
		before = h.counters()
		h.run(src, window, &p)
	}
	d := h.counters().sub(before)
	p.ServedL1 = d.l1.Hits
	p.ServedL2 = d.l2.Hits
	p.ServedMem = d.l2.Misses
	p.MemTraffic = d.mem.Accesses
	p.RowHitRate = d.mem.RowHitRate()
	return p, nil
}

// source reads a generator's ops in blocks: through NextBlock if it has
// one, else as one-op blocks of Next's ops.
type source struct {
	g      Generator
	blocks BlockGenerator
}

func (s source) next(max int) Block {
	if s.blocks != nil {
		return s.blocks.NextBlock(max)
	}
	op := s.g.Next()
	return Block{Refs: op.Refs, Ops: 1, Instrs: op.Instrs, CoreCycles: op.CoreCycles}
}

// addTo adds the block's op costs to p, rounding exactly as adding them
// op by op does. A value receiver lets a caller keep its block in
// registers.
func (b Block) addTo(p *Profile) {
	if b.Ops >= closedFormMin {
		b.addClosedForm(p)
		return
	}
	for range b.Ops {
		p.Instructions += b.Instrs
		p.CoreCycles += b.CoreCycles
	}
}

// addClosedForm is addTo for a block of closedFormMin or more ops, out
// of line so that addTo inlines.
func (b Block) addClosedForm(p *Profile) {
	p.Instructions = addRepeated(p.Instructions, b.Instrs, b.Ops)
	p.CoreCycles = addRepeated(p.CoreCycles, b.CoreCycles, b.Ops)
}

// closedFormMin is the fewest additions addRepeated does in closed
// form: below it, the per-binade arithmetic costs more than the adds.
const closedFormMin = 32

// addRepeated returns s after n additions s += c, bit for bit.
//
// Let u be the ulp of a positive normal s, in binade [2^e, 2^(e+1)).
// s is a multiple of u, so s+c rounds to s+r, where r is the multiple
// of u nearest c, for every s of the binade, unless c lies exactly
// halfway between two multiples of u (then the rounding goes to the
// even multiple, which depends on s). So every addition whose result
// stays below 2^(e+1) adds exactly r, and one multiply adds them all;
// the addition that leaves the binade is made as it is. Ties, a sum
// that is not positive, normal and finite, a c that is not, and small
// n take the additions one at a time.
func addRepeated(s, c float64, n int) float64 {
	if n < closedFormMin || !(c >= 0x1p-1022 && c <= math.MaxFloat64) {
		for range n {
			s += c
		}
		return s
	}
	for n > 0 {
		b := math.Float64bits(s)
		exp := b >> 52 // biased; a negative s sets the sign bit above it
		if exp == 0 || exp >= 0x7ff {
			s += c
			n--
			continue
		}
		u := math.Ldexp(1, int(exp)-1075)
		x := c / u // exact, or below 2^-1022 where r is 0 anyway
		if x >= 1<<53 {
			// r alone reaches past the binade.
			s += c
			n--
			continue
		}
		q := math.Floor(x)
		switch frac := x - q; {
		case frac == 0.5:
			for top := math.Float64frombits((exp + 1) << 52); n > 0 && s < top; n-- {
				s += c
			}
			continue
		case frac > 0.5:
			q++
		}
		if q == 0 {
			return s // every addition rounds back to s
		}
		// s = a·u with 2^52 <= a < 2^53, r = k·u: the first m additions
		// keep a + m·k below 2^53, in the binade.
		a, k := b&(1<<52-1)|1<<52, uint64(q)
		m := min((1<<53-1-a)/k, uint64(n))
		s += float64(m*k) * u
		n -= int(m)
		if n > 0 {
			s += c
			n--
		}
	}
	return s
}

// run simulates the next n ops of src. If sum is not nil, it adds each
// op's costs to it in order.
func (h *Hierarchy) run(src source, n int, sum *Profile) {
	// Every line of the bounds can only become resident through a miss,
	// and once all are, a block misses nothing: so residency is checked
	// at the start and after a block without misses that follows one.
	missed, clean := true, true
	for n > 0 {
		if h.res.on && missed && clean {
			if h.L1.ResidentLines(h.res.lo, h.res.hi) == len(h.res.last) {
				h.resident(src, n, sum)
				return
			}
			missed = false
		}
		b := src.next(n)
		n -= b.Ops
		if sum != nil {
			b.addTo(sum)
		}
		misses := h.L1.Stats().Misses
		for _, r := range b.Refs {
			h.Access(r.Addr, r.Write)
		}
		if h.res.on {
			clean = h.L1.Stats().Misses == misses
			missed = missed || !clean
		}
	}
}

// resident holds the L1-resident shortcut's bounds and buffers.
//
// Why it is exact: when every line a generator can reference is in L1,
// every access hits L1. A hit reaches neither the prefetcher, nor L2,
// nor DRAM, and changes L1 only by moving its line to the front of its
// set and, on a write, setting its dirty bit. So after a run of such
// hits each set holds the same lines: those the run touched ordered by
// their last touch, most recent first, ahead of the untouched ones in
// their old order, with the written ones dirty. Recording each line's
// last touch and whether it was written is enough to rebuild that
// (cache.ApplyHits); the statistics gain one L1 access and hit per
// reference.
type resident struct {
	on      bool
	lo, hi  uint64   // the bounds, lo line-aligned
	shift   uint     // log2 of the L1 line size
	last    []uint64 // per line from lo: 1-based position of its last touch, 0 if untouched
	written []bool   // per line from lo: some touch wrote it
	passes  int      // resident passes the last Characterize ran
}

// bound turns the resident shortcut on for references in [lo, hi) if
// every line of that range fits in L1 at once. Consecutive lines map to
// consecutive sets, so they fit exactly when there are no more of them
// than L1 has ways.
func (h *Hierarchy) bound(lo, hi uint64) {
	if lo >= hi {
		return
	}
	cfg := h.L1.Config()
	line := uint64(cfg.LineBytes)
	lo &^= line - 1
	lines := (hi-1-lo)/line + 1
	if lines > uint64(cfg.Sets()*cfg.Ways) {
		return
	}
	r := &h.res
	r.on, r.lo, r.hi = true, lo, hi
	r.shift = uint(bits.TrailingZeros64(line))
	r.last = slices.Grow(r.last[:0], int(lines))[:lines]
	r.written = slices.Grow(r.written[:0], int(lines))[:lines]
}

// resident accounts for the next n ops of src with every line of the
// bounds resident in L1 (see the resident type).
func (h *Hierarchy) resident(src source, n int, sum *Profile) {
	r := &h.res
	r.passes++
	clear(r.last)
	clear(r.written)
	var k uint64
	for n > 0 {
		b := src.next(n)
		n -= b.Ops
		if sum != nil {
			b.addTo(sum)
		}
		for _, ref := range b.Refs {
			k++
			i := (ref.Addr - r.lo) >> r.shift
			r.last[i] = k
			if ref.Write {
				r.written[i] = true
			}
		}
	}
	h.L1.ApplyHits(r.lo, r.last, r.written, k)
}

// counters is every count a simulated access can move; the hierarchy's
// own counts derive from them (see Hierarchy).
type counters struct {
	l1, l2 cache.Stats
	mem    memsim.Stats
	issued uint64 // prefetch requests
}

func (h *Hierarchy) counters() counters {
	return counters{l1: h.L1.Stats(), l2: h.L2.Stats(), mem: h.Mem.Stats(), issued: h.Pref.Issued()}
}

// sub returns the counts c gained since o.
func (c counters) sub(o counters) counters {
	return counters{l1: c.l1.Sub(o.l1), l2: c.l2.Sub(o.l2), mem: c.mem.Sub(o.mem), issued: c.issued - o.issued}
}

// steady is Characterize's fast-forward state for a periodic generator.
//
// Why replaying is exact: the state that decides how an access is
// served is the L1 and L2 way words, the DRAM open rows and the
// prefetcher's streams. L1 sees only demand accesses, so a cycle that
// starts from the logged cycle's L1 state misses L1 at the same
// addresses in the same order. L2 and DRAM see, per L1 miss, the
// prefetches it issues and then the demand access; the prefetched lines
// follow from the miss address alone. So if the prefetcher, fed the
// logged misses, issues on exactly the misses that issued in the logged
// cycle, L2 and DRAM see the logged cycle's inputs; from the logged
// cycle's start state they do what they did then, and end where they
// started. The cycle then adds the logged deltas of every counter but
// the prefetcher's, which the replay itself counts, and leaves the
// prefetcher, labels and all, as the replay did.
//
// Why chaining is exact: a cycle is replayed only after the logged
// cycle ended with the caches and DRAM as it started them. A replay
// therefore ends with them as it started them too, which is the logged
// cycle's start state again, so the next cycle can replay without
// comparing. After a replay that diverges, prev still holds the caches
// and DRAM the cycle starts from: every replay before it kept them.
type steady struct {
	prev, cur []uint64 // caches and DRAM at the logged cycle's start and now

	logging  bool                   // Access appends every L1 miss to log
	logged   bool                   // log holds a cycle that started from prev
	log      []uint64               // one word per L1 miss: its address, low bit set if it issued prefetches
	logStart counters               // counters at the start of the logged cycle
	logCycle counters               // the logged cycle's counter deltas
	logMid   counters               // its deltas up to the warmup boundary's offset in a cycle
	logMidAt int                    // the misses it logged before that offset
	spare    cache.StreamPrefetcher // the prefetcher before a replay, restored if the replay diverges

	costsKnown bool // every op costs instrs and cycles
	instrs     float64
	cycles     float64

	trace []outcome // if not nil (tests set it), gets each cycle started at a multiple of the period
}

// outcome is what a cycle started at a multiple of the period did:
// whether a replay was tried, whether it replayed, and whether the cycle
// holds the warmup boundary.
type outcome struct{ tried, replayed, straddle bool }

// fastForward runs warmup and then window ops of src, whose stream
// repeats every period ops, adding the window's op costs to p. It
// returns the counters at the warmup boundary.
func (h *Hierarchy) fastForward(src source, period, warmup, window int, p *Profile) (atWarmup counters) {
	s := &h.steady
	end := warmup + window
	mid := warmup % period // the warmup boundary's offset in its cycle
	s.logging, s.logged, s.costsKnown, s.trace = false, false, false, s.trace[:0]
	chained := false // the last cycle replayed
	for t := 0; ; {
		if t == warmup {
			atWarmup = h.counters()
		}
		off := t % period
		if s.logging && off == 0 {
			s.logging, s.logged = false, true
			s.logCycle = h.counters().sub(s.logStart)
		}
		if s.logging && off == mid {
			s.logMid = h.counters().sub(s.logStart)
			s.logMidAt = len(s.log)
		}
		if t == end {
			s.logging = false
			return atWarmup
		}
		if off == 0 {
			// A snapshot or a log is worth taking only if a whole cycle
			// could still be replayed after the next boundary.
			keep := t+2*period <= end
			straddle := t < warmup && warmup < t+period
			tried := (chained || h.observe(keep)) && t+period <= end
			chained = tried && h.replay(straddle, &atWarmup)
			if s.trace != nil {
				s.trace = append(s.trace, outcome{tried, chained, straddle})
			}
			if chained {
				if t+period > warmup {
					h.addCosts(src, p, max(warmup-t, 0), period)
				}
				t += period
				continue
			}
			s.logged = false
			if keep {
				// Log this cycle's misses for replays from the next
				// boundary on.
				s.logging = true
				s.log = s.log[:0]
				s.logStart = h.counters()
			}
		}
		// Simulate up to the next boundary, the end or the warmup
		// boundary's offset, whichever comes first.
		stop := min(t-off+period, end)
		if off < mid {
			stop = min(stop, t-off+mid)
		}
		var sum *Profile
		if t >= warmup {
			sum = p
		}
		h.run(src, stop-t, sum)
		t = stop
	}
}

// observe runs at a multiple of the period. It reports whether the
// logged cycle can be replayed from here: one is logged, and the caches
// and DRAM equal its start state in prev. If keep is set it leaves the
// current state in prev, for a log that starts here.
func (h *Hierarchy) observe(keep bool) (repeat bool) {
	s := &h.steady
	if !s.logged && !keep {
		return false
	}
	s.cur = h.appendCaches(s.cur[:0])
	repeat = s.logged && slices.Equal(s.cur, s.prev)
	if keep {
		s.prev, s.cur = s.cur, s.prev
	}
	return repeat
}

// appendCaches appends the state of the caches and DRAM to dst.
func (h *Hierarchy) appendCaches(dst []uint64) []uint64 {
	dst = h.L1.AppendState(dst)
	dst = h.L2.AppendState(dst)
	return h.Mem.AppendState(dst)
}

// replay accounts for the cycle starting now, whose caches and DRAM
// start as the logged cycle's did, by feeding the prefetcher the logged
// misses (see steady). If a miss issues differently, it restores the
// prefetcher and reports false, and the cycle must be simulated. A
// cycle that straddles the warmup boundary sets atWarmup from the
// logged deltas up to that boundary's offset.
func (h *Hierarchy) replay(straddle bool, atWarmup *counters) bool {
	s := &h.steady
	s.spare.CopyFrom(h.Pref)
	split := len(s.log)
	if straddle {
		split = s.logMidAt
	}
	ok := h.Pref.Replay(s.log[:split]) == split
	issued := h.Pref.Issued()
	if !ok || h.Pref.Replay(s.log[split:]) != len(s.log)-split {
		h.Pref.CopyFrom(&s.spare)
		return false
	}
	if straddle {
		h.advance(&s.logMid)
		*atWarmup = h.counters()
		atWarmup.issued = issued
		rest := s.logCycle.sub(s.logMid)
		h.advance(&rest)
	} else {
		h.advance(&s.logCycle)
	}
	return true
}

// advance adds the deltas c of every counter but the prefetcher's.
func (h *Hierarchy) advance(c *counters) {
	h.L1.Add(c.l1)
	h.L2.Add(c.l2)
	h.Mem.Add(c.mem)
}

// addCosts walks the next period ops of src and adds the costs of those
// from skip on to p in stream order, so the sums round exactly as a
// full simulation's do. Once a whole period's ops are known to cost the
// same, later calls add those constants without reading src, in closed
// form (addRepeated): the stream repeats, so they cost the same too.
func (h *Hierarchy) addCosts(src source, p *Profile, skip, period int) {
	s := &h.steady
	if s.costsKnown {
		p.Instructions = addRepeated(p.Instructions, s.instrs, period-skip)
		p.CoreCycles = addRepeated(p.CoreCycles, s.cycles, period-skip)
		return
	}
	uniform := true
	for k := 0; k < period; {
		b := src.next(period - k)
		if k == 0 {
			s.instrs, s.cycles = b.Instrs, b.CoreCycles
		}
		uniform = uniform &&
			math.Float64bits(b.Instrs) == math.Float64bits(s.instrs) &&
			math.Float64bits(b.CoreCycles) == math.Float64bits(s.cycles)
		next := k + b.Ops
		if from := max(k, skip); from < next {
			b.Ops = next - from
			b.addTo(p)
		}
		k = next
	}
	s.costsKnown = uniform
}
