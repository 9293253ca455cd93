package memsim

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestConfigValidation(t *testing.T) {
	ok := DDR333()
	if err := ok.Validate(); err != nil {
		t.Fatalf("DDR333 invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero latency", func(c *Config) { c.LatencyNs = 0 }},
		{"zero row hit latency", func(c *Config) { c.RowHitLatencyNs = 0 }},
		{"row hit above row miss", func(c *Config) { c.RowHitLatencyNs = c.LatencyNs + 1 }},
		{"zero row bytes", func(c *Config) { c.RowBytes = 0 }},
		{"zero banks", func(c *Config) { c.Banks = 0 }},
		{"row bytes not a power of two", func(c *Config) { c.RowBytes = 3000 }},
		{"banks not a power of two", func(c *Config) { c.Banks = 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DDR333()
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", c)
			}
			if _, err := New(c); err == nil {
				t.Error("New accepted invalid config")
			}
		})
	}
}

func TestRowHitLatency(t *testing.T) {
	m, err := New(DDR333())
	if err != nil {
		t.Fatal(err)
	}
	first := m.Access(0, 64)
	if first != 90 {
		t.Errorf("cold access latency = %g, want 90", first)
	}
	second := m.Access(64, 64) // same 4 KB row
	if second != 45 {
		t.Errorf("open-row access latency = %g, want 45", second)
	}
	s := m.Stats()
	if s.Accesses != 2 || s.RowHits != 1 || s.BytesXfr != 128 {
		t.Errorf("stats = %+v", s)
	}
	if s.RowHitRate() != 0.5 {
		t.Errorf("RowHitRate = %g, want 0.5", s.RowHitRate())
	}
}

func TestRowConflictReopensRow(t *testing.T) {
	m, _ := New(DDR333())
	cfg := m.cfg
	// Two rows mapping to the same bank: rows r and r+banks.
	a := uint64(0)
	b := uint64(cfg.RowBytes) * uint64(cfg.Banks)
	m.Access(a, 64)
	if got := m.Access(b, 64); got != 90 {
		t.Errorf("row conflict latency = %g, want 90", got)
	}
	if got := m.Access(a, 64); got != 90 {
		t.Errorf("reopened row latency = %g, want 90", got)
	}
}

func TestBanksAreIndependent(t *testing.T) {
	m, _ := New(DDR333())
	cfg := m.cfg
	a := uint64(0)                // bank 0
	b := uint64(cfg.RowBytes * 1) // bank 1
	m.Access(a, 64)
	m.Access(b, 64)
	if got := m.Access(a+64, 64); got != cfg.RowHitLatencyNs {
		t.Errorf("bank-0 row closed by bank-1 access: latency %g", got)
	}
}

func TestEmptyStats(t *testing.T) {
	var s Stats
	if s.RowHitRate() != 0 {
		t.Error("empty RowHitRate != 0")
	}
}

// Property: every access latency is either the row-hit or row-miss
// latency, and stats stay consistent.
func TestLatencyValuesAreWellFormed(t *testing.T) {
	f := func(addrs []uint32) bool {
		m, err := New(DDR333())
		if err != nil {
			return false
		}
		cfg := m.cfg
		hits := uint64(0)
		for _, a := range addrs {
			lat := m.Access(uint64(a), 64)
			switch lat {
			case cfg.RowHitLatencyNs:
				hits++
			case cfg.LatencyNs:
			default:
				return false
			}
		}
		s := m.Stats()
		return s.Accesses == uint64(len(addrs)) && s.RowHits == hits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refMemory is the DRAM model with the row and bank computed by
// division, for any geometry: the reference Memory's shift-and-mask path
// must match.
type refMemory struct {
	cfg      Config
	openRow  []uint64
	rowValid []bool
	stats    Stats
}

func (m *refMemory) access(addr uint64, lineBytes int) float64 {
	m.stats.Accesses++
	m.stats.BytesXfr += uint64(lineBytes)
	row := addr / m.cfg.RowBytes
	bank := int(row) % m.cfg.Banks
	if m.rowValid[bank] && m.openRow[bank] == row {
		m.stats.RowHits++
		return m.cfg.RowHitLatencyNs
	}
	m.openRow[bank] = row
	m.rowValid[bank] = true
	return m.cfg.LatencyNs
}

// TestAccessMatchesDivision drives Memory, which indexes rows and banks
// by shift and mask, and refMemory, which divides, with the same seeded
// addresses, clustered so rows hit and conflict, on DDR333 and on two
// other geometries: every latency, the Stats and the open-row state
// must agree.
func TestAccessMatchesDivision(t *testing.T) {
	small, wide := DDR333(), DDR333()
	small.RowBytes, small.Banks = 1024, 1
	wide.RowBytes, wide.Banks = 8192, 16
	for _, cfg := range []Config{DDR333(), small, wide} {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refMemory{cfg: cfg, openRow: make([]uint64, cfg.Banks), rowValid: make([]bool, cfg.Banks)}
		rng := rand.New(rand.NewPCG(1, uint64(cfg.RowBytes)))
		addr := uint64(0)
		for i := range 200_000 {
			switch rng.IntN(4) {
			case 0:
				addr = rng.Uint64() >> 1
			case 1:
				addr = rng.Uint64N(1 << 20)
			default:
				addr += 64
			}
			if got, want := m.Access(addr, 64), ref.access(addr, 64); got != want {
				t.Fatalf("%+v: access %d (%#x): latency %g, want %g", cfg, i, addr, got, want)
			}
		}
		if m.Stats() != ref.stats {
			t.Errorf("%+v: stats %+v, want %+v", cfg, m.Stats(), ref.stats)
		}
		var want []uint64
		for b, row := range ref.openRow {
			valid := uint64(0)
			if ref.rowValid[b] {
				valid = 1
			}
			want = append(want, valid, row)
		}
		if got := m.AppendState(nil); !slices.Equal(got, want) {
			t.Errorf("%+v: state %v, want %v", cfg, got, want)
		}
	}
}
