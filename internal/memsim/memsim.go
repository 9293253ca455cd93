// Package memsim models the off-chip DRAM main memory of the
// simulated platform: a fixed wall-clock access latency with a simple
// open-row bonus.
//
// DRAM timing is frequency-independent in wall-clock terms, which is
// the physical root of the paper's core observation: memory-bound
// workloads see little performance change across p-states because
// their critical path is measured in nanoseconds, not core cycles.
package memsim

import (
	"fmt"
	"math/bits"
)

// Config describes the DRAM model.
type Config struct {
	// LatencyNs is the row-miss (closed page) access latency.
	LatencyNs float64
	// RowHitLatencyNs is the latency when the access falls in the most
	// recently opened row of its bank.
	RowHitLatencyNs float64
	// RowBytes is the row (page) size per bank, a power of two.
	RowBytes uint64
	// Banks is the number of independent banks, a power of two.
	Banks int
}

// DDR333 returns timing for the DDR-333 memory of the paper's
// platform era: ~90 ns closed-page latency, ~45 ns open-page.
func DDR333() Config {
	return Config{
		LatencyNs:       90,
		RowHitLatencyNs: 45,
		RowBytes:        4096,
		Banks:           4,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.LatencyNs <= 0 || c.RowHitLatencyNs <= 0:
		return fmt.Errorf("memsim: non-positive latency %+v", c)
	case c.RowHitLatencyNs > c.LatencyNs:
		return fmt.Errorf("memsim: row hit latency %g above row miss latency %g", c.RowHitLatencyNs, c.LatencyNs)
	case c.RowBytes == 0 || c.Banks <= 0:
		return fmt.Errorf("memsim: invalid geometry %+v", c)
	case c.RowBytes&(c.RowBytes-1) != 0 || c.Banks&(c.Banks-1) != 0:
		// An address's row and bank are then a shift and a mask.
		return fmt.Errorf("memsim: row bytes %d or banks %d not a power of two", c.RowBytes, c.Banks)
	}
	return nil
}

// Stats counts DRAM activity.
type Stats struct {
	Accesses uint64
	RowHits  uint64
	BytesXfr uint64
}

// Sub returns the counts s gained since o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Accesses: s.Accesses - o.Accesses,
		RowHits:  s.RowHits - o.RowHits,
		BytesXfr: s.BytesXfr - o.BytesXfr,
	}
}

// RowHitRate returns the open-row hit fraction.
func (s Stats) RowHitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Accesses)
}

// Memory is the DRAM model instance.
type Memory struct {
	cfg      Config
	openRow  []uint64
	rowValid []bool
	stats    Stats
	rowShift uint   // log2(RowBytes): an address's row is addr>>rowShift
	bankMask uint64 // Banks-1: a row's bank is row&bankMask
}

// New builds a Memory from cfg.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Memory{
		cfg:      cfg,
		openRow:  make([]uint64, cfg.Banks),
		rowValid: make([]bool, cfg.Banks),
		rowShift: uint(bits.TrailingZeros64(cfg.RowBytes)),
		bankMask: uint64(cfg.Banks) - 1,
	}, nil
}

// Stats returns DRAM activity counters.
func (m *Memory) Stats() Stats { return m.stats }

// AppendState appends the open row of every bank to dst, as a valid
// flag and a row number per bank.
func (m *Memory) AppendState(dst []uint64) []uint64 {
	for b, row := range m.openRow {
		var valid uint64
		if m.rowValid[b] {
			valid = 1
		}
		dst = append(dst, valid, row)
	}
	return dst
}

// Add accounts for a run of accesses that left the open rows as they
// were and moved the statistics by d.
func (m *Memory) Add(d Stats) {
	m.stats.Accesses += d.Accesses
	m.stats.RowHits += d.RowHits
	m.stats.BytesXfr += d.BytesXfr
}

// Access performs one line transfer of lineBytes at addr and returns
// its latency in nanoseconds.
func (m *Memory) Access(addr uint64, lineBytes int) float64 {
	m.stats.Accesses++
	m.stats.BytesXfr += uint64(lineBytes)
	row := addr >> m.rowShift
	bank := row & m.bankMask
	if m.rowValid[bank] && m.openRow[bank] == row {
		m.stats.RowHits++
		return m.cfg.RowHitLatencyNs
	}
	m.openRow[bank] = row
	m.rowValid[bank] = true
	return m.cfg.LatencyNs
}
