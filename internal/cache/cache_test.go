package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func small() Config { return Config{SizeBytes: 1024, Ways: 2, LineBytes: 64} } // 8 sets

// newPrefetcher builds a stream prefetcher or fails tb.
func newPrefetcher(tb testing.TB, lineBytes, nStreams, degree int) *StreamPrefetcher {
	tb.Helper()
	p, err := NewStreamPrefetcher(lineBytes, nStreams, degree)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// holds reports whether addr's line is resident, without touching LRU
// state or statistics.
func holds(c *Cache, addr uint64) bool {
	key := addr&^c.lineMask | validBit
	for _, w := range c.set(addr) {
		if w&^dirtyBit == key {
			return true
		}
	}
	return false
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero size", Config{0, 2, 64}},
		{"zero ways", Config{1024, 0, 64}},
		{"zero line", Config{1024, 2, 0}},
		{"line not power of two", Config{1024, 2, 48}},
		{"line below 4 bytes", Config{64, 2, 2}},
		{"size not divisible", Config{1000, 2, 64}},
		{"sets not power of two", Config{64 * 2 * 3, 2, 64}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Errorf("Validate(%+v) = nil, want error", tc.cfg)
			}
			if _, err := New(tc.cfg); err == nil {
				t.Errorf("New(%+v) succeeded, want error", tc.cfg)
			}
		})
	}
	if err := PentiumML1D().Validate(); err != nil {
		t.Errorf("L1D config invalid: %v", err)
	}
	if err := PentiumML2().Validate(); err != nil {
		t.Errorf("L2 config invalid: %v", err)
	}
	if got := PentiumML1D().Sets(); got != 64 {
		t.Errorf("L1D sets = %d, want 64", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c, err := New(small())
	if err != nil {
		t.Fatal(err)
	}
	if r := c.Access(0x1000, false); r.Hit {
		t.Error("first access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Error("second access missed")
	}
	if r := c.Access(0x1010, false); !r.Hit {
		t.Error("same-line access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := New(small()) // 8 sets, 2 ways
	if err != nil {
		t.Fatal(err)
	}
	// Three lines mapping to set 0: stride = sets*line = 512.
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(d, false) // evicts b (LRU)
	if !holds(c, a) {
		t.Error("a evicted, want kept (MRU)")
	}
	if holds(c, b) {
		t.Error("b kept, want evicted (LRU)")
	}
	if !holds(c, d) {
		t.Error("d not inserted")
	}
}

func TestDirtyEvictionReportsWriteback(t *testing.T) {
	c, err := New(small())
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0, true) // dirty line in set 0
	c.Access(512, false)
	r := c.Access(1024, false) // evicts line 0 (dirty)
	if !r.Writeback {
		t.Fatal("no writeback reported")
	}
	if r.WritebackAddr != 0 {
		t.Errorf("writeback addr = %#x, want 0", r.WritebackAddr)
	}
	s := c.Stats()
	if s.Writebacks != 1 || s.Evictions != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestWriteMarksDirtyOnHit(t *testing.T) {
	c, _ := New(small())
	c.Access(0, false) // clean fill
	c.Access(0, true)  // hit marks dirty
	c.Access(512, false)
	r := c.Access(1024, false)
	if !r.Writeback {
		t.Error("dirty-on-hit line evicted without writeback")
	}
}

func TestFillInsertsCleanWithoutDemandStats(t *testing.T) {
	c, _ := New(small())
	c.Fill(0)
	if got := c.Stats().Accesses; got != 0 {
		t.Errorf("Fill counted as access: %d", got)
	}
	if !holds(c, 0) {
		t.Error("Fill did not insert line")
	}
	if r := c.Fill(0); !r.Hit {
		t.Error("refill of present line not reported as hit")
	}
	// Filled lines are clean: evicting one must not write back.
	c.Fill(512)
	r := c.Fill(1024)
	if r.Writeback {
		t.Error("clean fill evicted with writeback")
	}
}

// TestFillOfResidentLineChangesNothing pins a Fill of a resident line:
// it reports a hit, leaves the line where it is in LRU order (and
// dirty) and moves no statistic, so the line is still the set's victim.
func TestFillOfResidentLineChangesNothing(t *testing.T) {
	c, _ := New(small())
	c.Access(0, true) // dirty, and the LRU way of set 0 after the next access
	c.Access(512, false)
	state, stats := c.AppendState(nil), c.Stats()
	if r := c.Fill(0); !r.Hit || r.Writeback {
		t.Fatalf("Fill of a resident line = %+v, want a hit", r)
	}
	if got := c.AppendState(nil); !slices.Equal(got, state) {
		t.Errorf("Fill of a resident line moved the set: %#x, was %#x", got, state)
	}
	if got := c.Stats(); got != stats {
		t.Errorf("Fill of a resident line moved the stats: %+v, was %+v", got, stats)
	}
	if r := c.Access(1024, false); !r.Writeback || r.WritebackAddr != 0 {
		t.Errorf("next miss in the set = %+v, want it to write back line 0", r)
	}
}

// Property: hits + misses == accesses for arbitrary access streams.
func TestStatsConservation(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c, err := New(small())
		if err != nil {
			return false
		}
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses && s.Accesses == uint64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the working set fitting one set's ways never misses after
// the first pass, regardless of access order.
func TestNoCapacityMissesWithinWays(t *testing.T) {
	f := func(order []uint8) bool {
		c, err := New(small())
		if err != nil {
			return false
		}
		lines := []uint64{0, 512} // exactly the 2 ways of set 0
		for _, l := range lines {
			c.Access(l, false)
		}
		before := c.Stats().Misses
		for _, o := range order {
			c.Access(lines[int(o)%2], false)
		}
		return c.Stats().Misses == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStreamPrefetcherLimits checks every stream count the constructor
// takes: with all slots filled, the least recent one is replaced, and
// counts above maxStreams or line sizes without a free low bit are
// errors.
func TestStreamPrefetcherLimits(t *testing.T) {
	for n := 1; n <= maxStreams; n++ {
		p := newPrefetcher(t, 64, n, 1)
		// Fill every slot, then continue each stream in reverse, so slot 0
		// is the most recent and slot n-1 the least.
		for s := range n {
			p.OnMiss(uint64(s) << 20)
		}
		for s := n - 1; s >= 0; s-- {
			if got := p.OnMiss(uint64(s)<<20 + 64); len(got) != 1 {
				t.Fatalf("%d streams: stream %d not continued", n, s)
			}
		}
		p.OnMiss(1 << 40) // replaces slot n-1
		want := []int{n - 1}
		for s := range n - 1 {
			want = append(want, s)
		}
		if got := p.AppendSlots(nil); !slices.Equal(got, want) {
			t.Errorf("%d streams: slots %v, want %v", n, got, want)
		}
		if p.OnMiss(uint64(n-1)<<20+128) != nil {
			t.Errorf("%d streams: the replaced stream was continued", n)
		}
	}
	for _, bad := range []struct{ line, streams int }{{64, maxStreams + 1}, {1, 8}, {48, 8}, {0, 8}} {
		if _, err := NewStreamPrefetcher(bad.line, bad.streams, 1); err == nil {
			t.Errorf("NewStreamPrefetcher(%d, %d, 1) succeeded, want error", bad.line, bad.streams)
		}
	}
}

func TestStreamPrefetcherDetectsSequentialStream(t *testing.T) {
	p := newPrefetcher(t, 64, 4, 2)
	if got := p.OnMiss(0); got != nil {
		t.Errorf("first miss prefetched %v", got)
	}
	got := p.OnMiss(64) // second sequential miss confirms the stream
	want := []uint64{128, 192}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("prefetches = %v, want %v", got, want)
	}
	if p.Issued() != 2 {
		t.Errorf("Issued = %d, want 2", p.Issued())
	}
}

func TestStreamPrefetcherIgnoresRandomMisses(t *testing.T) {
	p := newPrefetcher(t, 64, 4, 2)
	addrs := []uint64{0, 4096, 10240, 512, 900000}
	for _, a := range addrs {
		if got := p.OnMiss(a); got != nil {
			t.Errorf("random miss %#x prefetched %v", a, got)
		}
	}
}

func TestStreamPrefetcherTracksMultipleStreams(t *testing.T) {
	p := newPrefetcher(t, 64, 4, 1)
	p.OnMiss(0)
	p.OnMiss(1 << 20)
	if got := p.OnMiss(64); len(got) != 1 || got[0] != 128 {
		t.Errorf("stream A prefetch = %v", got)
	}
	if got := p.OnMiss(1<<20 + 64); len(got) != 1 || got[0] != 1<<20+128 {
		t.Errorf("stream B prefetch = %v", got)
	}
}

func TestStreamPrefetcherTieContinuesLowerSlot(t *testing.T) {
	p := newPrefetcher(t, 64, 4, 1)
	p.OnMiss(0)    // slot 0 expects 64
	p.OnMiss(4096) // slot 1 expects 4160
	p.OnMiss(0)    // slot 2 expects 64 too
	if got, want := p.AppendState(nil), []uint64{3, 64, 4160, 64, 0}; !slices.Equal(got, want) {
		t.Fatalf("state before the tie %v, want %v", got, want)
	}
	if got := p.OnMiss(64); len(got) != 1 || got[0] != 128 {
		t.Errorf("tied miss prefetched %v, want [128]", got)
	}
	// The lower slot continued: slot 0 now expects 128 and is the most
	// recent; slot 2 still expects 64.
	if got, want := p.AppendSlots(nil), []int{0, 2, 1, 3}; !slices.Equal(got, want) {
		t.Errorf("slots %v, want %v", got, want)
	}
	if got, want := p.AppendState(nil), []uint64{3, 128, 64, 4160, 0}; !slices.Equal(got, want) {
		t.Errorf("state %v, want %v", got, want)
	}
}

// BenchmarkStreamPrefetcherMiss times one demand miss through the
// Pentium M prefetcher (8 streams, degree 2): random lines, each of
// which allocates a stream, and four interleaved sequential streams,
// each miss of which continues one.
func BenchmarkStreamPrefetcherMiss(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	random, streaming := make([]uint64, n), make([]uint64, n)
	for i := range n {
		random[i] = uint64(rng.Int63n(1<<23)) &^ 63
		streaming[i] = uint64(i%4)<<30 + uint64(i/4)*64
	}
	for _, bc := range []struct {
		name  string
		addrs []uint64
	}{{"random", random}, {"streaming", streaming}} {
		b.Run(bc.name, func(b *testing.B) {
			p := newPrefetcher(b, 64, 8, 2)
			for i := range b.N {
				p.OnMiss(bc.addrs[i%n])
			}
		})
	}
}
