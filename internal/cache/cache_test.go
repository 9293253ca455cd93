package cache

import (
	"testing"
	"testing/quick"
)

func small() Config { return Config{SizeBytes: 1024, Ways: 2, LineBytes: 64} } // 8 sets

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero size", Config{0, 2, 64}},
		{"zero ways", Config{1024, 0, 64}},
		{"zero line", Config{1024, 2, 0}},
		{"line not power of two", Config{1024, 2, 48}},
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
	if !c.Contains(a) {
		t.Error("a evicted, want kept (MRU)")
	}
	if c.Contains(b) {
		t.Error("b kept, want evicted (LRU)")
	}
	if !c.Contains(d) {
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

func TestContainsDoesNotDisturbState(t *testing.T) {
	c, _ := New(small())
	c.Access(0, false)
	c.Access(512, false)
	// Probing a (LRU) must not refresh it.
	if !c.Contains(0) {
		t.Fatal("line 0 missing")
	}
	c.Access(1024, false) // should still evict 0 as LRU
	if c.Contains(0) {
		t.Error("Contains refreshed LRU state")
	}
	st := c.Stats()
	if st.Accesses != 3 {
		t.Errorf("Contains counted as access: %+v", st)
	}
}

func TestFillInsertsCleanWithoutDemandStats(t *testing.T) {
	c, _ := New(small())
	c.Fill(0)
	if got := c.Stats().Accesses; got != 0 {
		t.Errorf("Fill counted as access: %d", got)
	}
	if !c.Contains(0) {
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

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty MissRate != 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("MissRate = %g, want 0.25", s.MissRate())
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

func TestStreamPrefetcherDetectsSequentialStream(t *testing.T) {
	p := NewStreamPrefetcher(64, 4, 2)
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
	p := NewStreamPrefetcher(64, 4, 2)
	addrs := []uint64{0, 4096, 10240, 512, 900000}
	for _, a := range addrs {
		if got := p.OnMiss(a); got != nil {
			t.Errorf("random miss %#x prefetched %v", a, got)
		}
	}
}

func TestStreamPrefetcherTracksMultipleStreams(t *testing.T) {
	p := NewStreamPrefetcher(64, 4, 1)
	p.OnMiss(0)
	p.OnMiss(1 << 20)
	if got := p.OnMiss(64); len(got) != 1 || got[0] != 128 {
		t.Errorf("stream A prefetch = %v", got)
	}
	if got := p.OnMiss(1<<20 + 64); len(got) != 1 || got[0] != 1<<20+128 {
		t.Errorf("stream B prefetch = %v", got)
	}
}
