package kernel

import (
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"aapm/internal/cache"
	"aapm/internal/memsim"
)

// loopGen is a periodic test generator. Op i touches, for every stream,
// base + (i mod period)*stride, writing the streams whose bit is set in
// writes. Its costs repeat with the stream: constant, or varying with
// i mod period when vary is set (in steps that do not add exactly, so
// the summation order shows).
type loopGen struct {
	streams []loopStream
	period  int
	writes  uint8
	vary    bool

	i     int
	calls int // Next calls since construction
	refs  []Ref
}

type loopStream struct{ base, stride uint64 }

func (g *loopGen) Name() string { return "loop" }
func (g *loopGen) Reset()       { g.i = 0 }
func (g *loopGen) Period() int  { return g.period }
func (g *loopGen) Next() Op {
	k := uint64(g.i % g.period)
	g.i++
	g.calls++
	g.refs = g.refs[:0]
	for s, st := range g.streams {
		g.refs = append(g.refs, Ref{Addr: st.base + k*st.stride, Write: g.writes>>s&1 != 0})
	}
	op := Op{Refs: g.refs, Instrs: 3, CoreCycles: 1.7}
	if g.vary {
		op.Instrs += float64(k%3) * 0.1
		op.CoreCycles += float64(k%5) * 0.3
	}
	return op
}

// opaque hides a generator's period, so Characterize simulates every op.
type opaque struct{ Generator }

// geometry sizes a test hierarchy: an l1Ways-way L1 of l1Sets sets, a
// 4-way L2 of l2Sets sets (64-byte lines) and a prefetcher of streams
// slots fetching degree lines ahead.
type geometry struct{ l1Ways, l1Sets, l2Sets, streams, degree int }

// pentiumM is the paper platform's geometry.
var pentiumM = geometry{}

func (g geometry) hierarchy(t testing.TB) *Hierarchy {
	t.Helper()
	if g == pentiumM {
		h, err := NewPentiumMHierarchy()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	l1, err := cache.New(cache.Config{SizeBytes: g.l1Ways * g.l1Sets * 64, Ways: g.l1Ways, LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := cache.New(cache.Config{SizeBytes: 4 * g.l2Sets * 64, Ways: 4, LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := memsim.New(memsim.DDR333())
	if err != nil {
		t.Fatal(err)
	}
	pref, err := cache.NewStreamPrefetcher(64, g.streams, g.degree)
	if err != nil {
		t.Fatal(err)
	}
	return &Hierarchy{L1: l1, L2: l2, Pref: pref, Mem: mem}
}

// ffResult reports what the fast-forwarded run of checkFastForward did.
type ffResult struct {
	// trace has a letter per steady.trace outcome: r if the cycle
	// replayed, x if its replay diverged, s if none was tried; upper case
	// if the cycle holds the warmup boundary.
	trace string
	slots []int // the prefetcher's slot labels after Characterize
}

// replays counts the replayed cycles, and chained those replayed right
// after another, without comparing the caches and DRAM.
func (r ffResult) replays() int { return strings.Count(strings.ToLower(r.trace), "r") }
func (r ffResult) chained() (n int) {
	trace := strings.ToLower(r.trace)
	for i := 1; i < len(trace); i++ {
		if trace[i-1:i+1] == "rr" {
			n++
		}
	}
	return n
}

// diverged reports that some replay issued differently and its cycle
// was simulated; straddle, that the cycle holding the warmup boundary
// was replayed.
func (r ffResult) diverged() bool { return strings.ContainsAny(r.trace, "xX") }
func (r ffResult) straddle() bool { return strings.Contains(r.trace, "R") }

// firstReplay returns the index of the first replayed cycle, or -1.
func (r ffResult) firstReplay() int { return strings.IndexAny(r.trace, "rR") }

// checkFastForward characterizes g through a fresh hierarchy of geo
// twice, once with its period hidden, and fails unless the Profile, every
// counter and the prefetcher's labelled state come out equal. It then
// drives both hierarchies with tieStream, whose continuing streams are
// picked by slot label, and requires every served level to match.
func checkFastForward(t *testing.T, geo geometry, g *loopGen, warmup, window int) ffResult {
	t.Helper()
	full, ff := geo.hierarchy(t), geo.hierarchy(t)
	want, err := Characterize(opaque{g}, full, warmup, window)
	if err != nil {
		t.Fatal(err)
	}
	ff.steady.trace = []outcome{}
	got, err := Characterize(g, ff, warmup, window)
	if err != nil {
		t.Fatal(err)
	}
	compareProfiles(t, warmup, window, got, want)
	compareHierarchies(t, "after Characterize", ff, full)

	res := ffResult{slots: ff.Pref.AppendSlots(nil)}
	for _, o := range ff.steady.trace {
		c := byte('s')
		if o.tried {
			c = 'x'
		}
		if o.replayed {
			c = 'r'
		}
		if o.straddle {
			c -= 'a' - 'A'
		}
		res.trace += string(c)
	}
	step, tied := 0, false
	var state []uint64
	tieStream(full, geo, func(addr uint64, write bool) {
		step++
		state = full.Pref.AppendState(state[:0])
		lf, lff := full.Access(addr, write), ff.Access(addr, write)
		if lf != lff {
			t.Fatalf("follow-up access %d (%#x): fast-forwarded hierarchy served %v, full simulation %v", step, addr, lff, lf)
		}
		// A miss reaches the prefetcher; it is a tie if two filled
		// slots expected its line just before it.
		if lf != LevelL1 && expecting(state, addr&^uint64(full.L1.LineBytes()-1)) >= 2 {
			tied = true
		}
	})
	if geo != pentiumM && !tied {
		t.Fatalf("follow-up stream caused no prefetcher tie")
	}
	compareHierarchies(t, "after the follow-up", ff, full)
	return res
}

// expecting counts the filled slots of a prefetcher state (as
// AppendState writes it: filled slots first) that expect line.
func expecting(state []uint64, line uint64) int {
	n := 0
	for _, want := range state[1 : 1+state[0]] {
		if want == line {
			n++
		}
	}
	return n
}

// compareProfiles fails unless got and want are equal, floats bit for
// bit.
func compareProfiles(t *testing.T, warmup, window int, got, want Profile) {
	t.Helper()
	bits := math.Float64bits
	if got.ServedL1 != want.ServedL1 || got.ServedL2 != want.ServedL2 || got.ServedMem != want.ServedMem ||
		got.MemTraffic != want.MemTraffic || bits(got.Instructions) != bits(want.Instructions) ||
		bits(got.CoreCycles) != bits(want.CoreCycles) || bits(got.RowHitRate) != bits(want.RowHitRate) {
		t.Fatalf("warmup %d window %d: fast-forward profile %+v, full simulation %+v", warmup, window, got, want)
	}
}

// compareHierarchies fails unless got and want have equal counters and
// equal state, prefetcher slot labels included.
func compareHierarchies(t *testing.T, when string, got, want *Hierarchy) {
	t.Helper()
	if g, w := got.counters(), want.counters(); g != w {
		t.Fatalf("%s: fast-forward counters %+v, full simulation %+v", when, g, w)
	}
	if !slices.Equal(got.Pref.AppendState(got.appendCaches(nil)), want.Pref.AppendState(want.appendCaches(nil))) {
		t.Fatalf("%s: fast-forward cache, DRAM or prefetcher state differs", when)
	}
	if g, w := got.Pref.AppendSlots(nil), want.Pref.AppendSlots(nil); !slices.Equal(g, w) {
		t.Fatalf("%s: fast-forward prefetcher slots %v, full simulation %v", when, g, w)
	}
}

// tieStream feeds access a sequence that makes two prefetcher streams
// expect the same line, in fresh regions far above any loopGen stream.
// Per round: line X misses (a stream now expects X+64), l1Ways lines
// conflicting with X in L1 (and continuing no stream) evict it, X
// misses again (a second stream expects X+64) and X+64 misses, a tie
// the lower slot wins. The loser
// stays behind, so a later round at X+64 continues it or finds it
// evicted depending on which slot won. With l1Ways+2 <= streams the
// first stream is still tracked at the tie.
func tieStream(h *Hierarchy, geo geometry, access func(addr uint64, write bool)) {
	ways := max(1, geo.l1Ways)
	span := uint64(h.L1.Config().SizeBytes / h.L1.Config().Ways)
	for round := uint64(0); round < 24; round++ {
		x := 1<<44 + round%6*span*uint64(ways+1)*4 + round/6*64
		access(x, round%2 == 0)
		for k := 1; k <= ways; k++ {
			access(x+uint64(4*k)*span, false)
		}
		access(x, false)
		access(x+64, false)
		access(x+128, round%3 == 0)
	}
}

// TestCharacterizeFastForwardMatchesFull runs periodic loops through
// the fast-forward path and a full simulation of the same stream: the
// Profile bits, every counter and the final labelled state must agree,
// including warmup 0, windows shorter than one period and warmup or
// window lengths that are not multiples of the period. Each case
// requires its replayed outcome exactly, at least its count of chained
// replays, and the other outcomes when set.
func TestCharacterizeFastForwardMatchesFull(t *testing.T) {
	small := geometry{l1Ways: 2, l1Sets: 4, l2Sets: 16, streams: 8, degree: 2}
	seq := func(period int, strides ...uint64) *loopGen {
		g := &loopGen{period: period}
		for i, s := range strides {
			g.streams = append(g.streams, loopStream{base: uint64(i+1) << 32, stride: s})
		}
		return g
	}
	withWrites := func(g *loopGen, w uint8) *loopGen { g.writes = w; return g }
	varying := func(g *loopGen) *loopGen { g.vary = true; return g }
	const dramP = 24_576 // two 64-byte-stride arrays of dramP lines overflow the 2 MB L2
	type want struct {
		replayed bool   // some cycle replayed
		chained  int    // at least this many cycles replayed right after a replay
		diverged bool   // some replay diverged
		straddle bool   // the cycle holding the warmup boundary replayed
		rotates  bool   // the slot labels after the run differ from those at the first replay
		shape    string // a regexp the trace must match
	}
	cases := []struct {
		name           string
		geo            geometry
		gen            *loopGen
		warmup, window int
		want           want
	}{
		{"L1-resident", pentiumM, seq(512, 8, 8), 10_000, 20_000, want{replayed: true, chained: 50}},
		{"L1-resident warmup 0", pentiumM, seq(512, 8, 8), 0, 30_001, want{replayed: true, chained: 50}},
		{"window shorter than period", pentiumM, seq(512, 8, 8), 9_000, 300, want{replayed: true, chained: 10}},
		// Two streams are allocated anew every cycle, so each replay
		// moves the slot labels and tieStream checks where they end.
		{"L2 streaming", pentiumM, withWrites(seq(8192, 8, 8), 2), 50_003, 70_001, want{replayed: true, chained: 10, straddle: true, rotates: true}},
		// Each wrap leaves two dead streams expecting the lines past the
		// arrays' ends; replays carry them along.
		{"DRAM streaming", small, withWrites(seq(600, 8, 8), 2), 3_333, 12_345, want{replayed: true, chained: 10, straddle: true}},
		{"DRAM streaming, dead streams", pentiumM, withWrites(seq(dramP, 64, 64), 2), 2*dramP + 1_234, 6 * dramP, want{replayed: true, chained: 4, straddle: true}},
		{"varying costs", small, varying(seq(96, 8, 64)), 1_001, 4_999, want{replayed: true, chained: 40}},
		{"varying costs warmup 0", small, varying(withWrites(seq(40, 24), 1)), 0, 777, want{replayed: true, chained: 10}},
		{"strided conflicts", small, withWrites(seq(64, 256, 320), 3), 5_000, 5_000, want{replayed: true, chained: 100}},
		{"one op period", small, seq(1, 0), 3, 10, want{replayed: true, chained: 5}},
		{"too short to replay", small, seq(600, 8, 8), 100, 1_000, want{}},
		{"descending", small, seq(300, ^uint64(7), 8), 2_000, 2_000, want{replayed: true, chained: 5}},
		{"replay across warmup", small, seq(300, 8, 8, 8), 4*300 + 150, 4 * 300, want{replayed: true, chained: 3, straddle: true}},
		{"replay warmup 0", small, seq(300, 8, 8, 8), 0, 8 * 300, want{replayed: true, chained: 4}},
		// Some replay issues prefetches on a miss that issued none in
		// the logged cycle (or the reverse), so that cycle is simulated.
		{"replay diverges", geometry{l1Ways: 1, l1Sets: 8, l2Sets: 8, streams: 6, degree: 2}, withWrites(seq(102, 16, 24, 128), 2), 5_142, 2_296, want{replayed: true, diverged: true, straddle: true}},
		// A replay diverges after chained ones; the simulated cycle ends
		// where the chain started, so the next one replays its log.
		{"chain diverges and rejoins", geometry{l1Ways: 1, l1Sets: 4, l2Sets: 16, streams: 8, degree: 2}, withWrites(seq(357, 16, 320, 72), 4), 3_115, 4_434, want{replayed: true, chained: 2, diverged: true, straddle: true, shape: `[rR]{3,}[xX][rR]`}},
		// A cycle simulated after a diverged replay need not end with the
		// caches as it started them, so the next cycle must compare
		// again; here they differ, and replaying unchecked miscounts.
		{"diverged cycle moves the caches", geometry{l1Ways: 2, l1Sets: 2, l2Sets: 64, streams: 8, degree: 2}, withWrites(seq(249, 151, 8, 16), 5), 3_065, 2_940, want{replayed: true, diverged: true, shape: `[xX][sS].`}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := checkFastForward(t, c.geo, c.gen, c.warmup, c.window)
			if got := res.replays() > 0; got != c.want.replayed {
				t.Errorf("replayed = %v, want %v (trace %s)", got, c.want.replayed, res.trace)
			}
			if got := res.chained(); got < c.want.chained {
				t.Errorf("%d chained replays, want at least %d (trace %s)", got, c.want.chained, res.trace)
			}
			if c.want.diverged && !res.diverged() {
				t.Errorf("every replay issued as logged; this case should exercise a diverging replay (trace %s)", res.trace)
			}
			if c.want.straddle && !res.straddle() {
				t.Errorf("the cycle holding the warmup boundary was not replayed (trace %s)", res.trace)
			}
			if c.want.shape != "" && !regexp.MustCompile(c.want.shape).MatchString(res.trace) {
				t.Errorf("trace %s does not match %s", res.trace, c.want.shape)
			}
			if c.want.rotates {
				start := c.geo.hierarchy(t)
				if _, err := Characterize(opaque{c.gen}, start, 0, res.firstReplay()*c.gen.period); err != nil {
					t.Fatal(err)
				}
				if first := start.Pref.AppendSlots(nil); slices.Equal(first, res.slots) {
					t.Errorf("slot labels %v at the end equal those at the first replay; this case should exercise moving labels", first)
				}
			}
		})
	}
}

// TestCharacterizeFastForwardSkipsNext checks that cycles skipped during
// the warmup, and window cycles with constant costs, are accounted for
// without calling Next.
func TestCharacterizeFastForwardSkipsNext(t *testing.T) {
	h, err := NewPentiumMHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	g := &loopGen{period: 64, streams: []loopStream{{base: 1 << 32, stride: 8}}}
	if _, err := Characterize(g, h, 100_000, 100_000); err != nil {
		t.Fatal(err)
	}
	if g.calls > 1_000 {
		t.Errorf("Next called %d times over 200,000 ops of a 64-op loop", g.calls)
	}
}

// FuzzCharacterizeFastForward is the fuzzing arm of
// TestCharacterizeFastForwardMatchesFull: small hierarchies, one to
// three streams with arbitrary strides (zero, sub-line, conflicting,
// descending) and write masks, constant or varying costs, and arbitrary
// periods, warmups and windows. Sub-line strides over several arrays
// leave dead prefetcher streams at every wrap, which is what takes the
// replay tier, diverging replays included.
func FuzzCharacterizeFastForward(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(8), uint16(8), uint16(8), uint16(99), uint8(0x12), false, uint16(1000), uint16(3000))
	f.Add(uint8(5), uint8(4), uint16(64), uint16(72), uint16(0), uint16(7), uint8(0x25), true, uint16(0), uint16(50))
	f.Add(uint8(26), uint8(3), uint16(0x8008), uint16(24), uint16(4096), uint16(511), uint8(0x03), false, uint16(777), uint16(8191))
	f.Add(uint8(31), uint8(0x14), uint16(8), uint16(8), uint16(8), uint16(0), uint8(0x2f), true, uint16(5), uint16(1))
	// Replays across the warmup boundary; a replay that diverges.
	f.Add(uint8(13), uint8(19), uint16(8), uint16(8), uint16(8), uint16(299), uint8(0x20), false, uint16(1350), uint16(1199))
	f.Add(uint8(6), uint8(17), uint16(16), uint16(24), uint16(128), uint16(101), uint8(0x22), false, uint16(5142), uint16(2295))
	// A replay that diverges after chained replays, then one whose
	// simulated cycle moves the caches.
	f.Add(uint8(172), uint8(189), uint16(16), uint16(320), uint16(72), uint16(356), uint8(0x24), false, uint16(3115), uint16(4433))
	f.Add(uint8(91), uint8(184), uint16(151), uint16(8), uint16(16), uint16(248), uint8(0x25), false, uint16(3065), uint16(2939))
	f.Fuzz(func(t *testing.T, geo, streams uint8, s0, s1, s2, period uint16, shape uint8, vary bool, warmup, window uint16) {
		g := &loopGen{period: 1 + int(period%512), writes: shape & 7, vary: vary}
		for i, s := range []uint16{s0, s1, s2}[:1+int(shape>>4)%3] {
			// The top bit makes the stream descend.
			stride := uint64(s & 0x7fff)
			if s&0x8000 != 0 {
				stride = -stride
			}
			g.streams = append(g.streams, loopStream{base: uint64(i+1) << 32, stride: stride})
		}
		gm := geometry{
			l1Ways:  1 + int(geo&1),
			l1Sets:  1 << (geo >> 1 & 3),
			l2Sets:  8 << (geo >> 3 & 3),
			streams: 4 + int(streams%5),
			degree:  1 + int(streams>>4&1),
		}
		checkFastForward(t, gm, g, int(warmup%8192), 1+int(window%8192))
	})
}
