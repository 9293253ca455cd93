// Package cache implements the set-associative cache models used to
// characterize the MS-Loops microbenchmarks from first principles.
//
// The simulated hierarchy mirrors the Pentium M 755 (Dothan): a 32 KB
// 8-way L1 data cache and a 2 MB 8-way unified L2, both with 64-byte
// lines, write-back/write-allocate, and true-LRU replacement, plus a
// simple sequential stream prefetcher in front of the L2 (the "DCU
// prefetcher" the paper credits for FMA's behaviour).
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// LineBytes is the cache line size.
	LineBytes int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	case c.SizeBytes%(c.Ways*c.LineBytes) != 0:
		return fmt.Errorf("cache: size %d not divisible by ways*line %d", c.SizeBytes, c.Ways*c.LineBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// PentiumML1D returns the L1 data cache geometry (32 KB, 8-way, 64 B).
func PentiumML1D() Config { return Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64} }

// PentiumML2 returns the L2 geometry (2 MB, 8-way, 64 B).
func PentiumML2() Config { return Config{SizeBytes: 2 << 20, Ways: 8, LineBytes: 64} }

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set logical timestamp; larger = more recent.
	lru uint64
}

// Stats counts the accesses a cache level served.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// MissRate returns Misses/Accesses, or 0 with no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative, write-back, write-allocate level.
type Cache struct {
	cfg      Config
	lines    []line // set-major: set i holds lines[i*ways : (i+1)*ways]
	ways     int
	setMask  uint64
	lineBits uint
	tagShift uint // bits of the set index, stripped from a line address
	clock    uint64
	stats    Stats
}

// New builds a cache; it panics only on invalid configuration
// (programmer error), reported via error instead.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, nsets*cfg.Ways),
		ways:     cfg.Ways,
		setMask:  uint64(nsets - 1),
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tagShift: uint(bits.TrailingZeros(uint(nsets))),
	}, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the access counters so far.
func (c *Cache) Stats() Stats { return c.stats }

// Result describes the outcome of one access.
type Result struct {
	// Hit reports whether the line was present.
	Hit bool
	// WritebackAddr is the address of a dirty line evicted to make
	// room; valid only when Writeback is true.
	Writeback     bool
	WritebackAddr uint64
}

// Access looks up addr, allocating on miss (write-allocate). write
// marks the line dirty. The returned Result reports hit/miss and any
// dirty eviction the allocation caused.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.clock++
	c.stats.Accesses++
	lineAddr := addr >> c.lineBits
	set := c.set(lineAddr)
	tag := lineAddr >> c.tagShift

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stats.Hits++
			set[i].lru = c.clock
			if write {
				set[i].dirty = true
			}
			return Result{Hit: true}
		}
	}
	c.stats.Misses++
	// Victim: invalid way first, else least recently used.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	var res Result
	if set[victim].valid {
		c.stats.Evictions++
		if set[victim].dirty {
			c.stats.Writebacks++
			res.Writeback = true
			res.WritebackAddr = c.rebuild(set[victim].tag, lineAddr&c.setMask)
		}
	}
	set[victim] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	return res
}

// Contains reports whether addr's line is resident, without touching
// LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := addr >> c.lineBits
	set := c.set(lineAddr)
	tag := lineAddr >> c.tagShift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Fill inserts addr's line without counting a demand access (used for
// prefetches). It marks the line clean and returns any dirty eviction.
func (c *Cache) Fill(addr uint64) Result {
	c.clock++
	lineAddr := addr >> c.lineBits
	set := c.set(lineAddr)
	tag := lineAddr >> c.tagShift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return Result{Hit: true}
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	var res Result
	if set[victim].valid {
		c.stats.Evictions++
		if set[victim].dirty {
			c.stats.Writebacks++
			res.Writeback = true
			res.WritebackAddr = c.rebuild(set[victim].tag, lineAddr&c.setMask)
		}
	}
	set[victim] = line{tag: tag, valid: true, lru: c.clock}
	return res
}

// set returns the ways of lineAddr's set.
func (c *Cache) set(lineAddr uint64) []line {
	i := int(lineAddr&c.setMask) * c.ways
	return c.lines[i : i+c.ways]
}

func (c *Cache) rebuild(tag, setIdx uint64) uint64 {
	return (tag<<c.tagShift | setIdx) << c.lineBits
}

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }
