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
	case c.LineBytes < 4:
		// A line's state bits live in the two low bits of its
		// line-aligned address (see Cache).
		return fmt.Errorf("cache: line size %d below 4 bytes", c.LineBytes)
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

// Stats counts the accesses a cache level served. Every access hits or
// misses, so Accesses is always Hits + Misses.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Sub returns the counts s gained since o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Accesses:   s.Accesses - o.Accesses,
		Hits:       s.Hits - o.Hits,
		Misses:     s.Misses - o.Misses,
		Evictions:  s.Evictions - o.Evictions,
		Writebacks: s.Writebacks - o.Writebacks,
	}
}

// Cache is one set-associative, write-back, write-allocate level with
// true-LRU replacement.
//
// Each way is one word: the line-aligned address of the line it
// holds, with validBit and dirtyBit in the two low bits (which a
// line-aligned address of a line of 4 or more bytes leaves zero). An
// empty way is 0. A set keeps its ways most recent first, so a hit
// moves its way to the front, a miss shifts every way back by one and
// inserts at the front, and the way shifted out — the last — is the
// victim. Lines are never invalidated, so empty ways only ever sit at
// the back of a set, and a set is full exactly when its last way is
// valid.
//
// This is the same replacement as stamping every touched line with a
// fresh clock value and evicting the smallest stamp (empty ways
// first): an Access or Fill that inserts or hits-and-refreshes a line
// stamps exactly that line, a Fill that hits stamps none, and the
// stamp order of a set's lines is its front-to-back order.
// Which way of a set holds a line is not observable — a writeback
// address comes from the line, not the way — so every Result and
// Stats value is the same.
type Cache struct {
	cfg      Config
	ways     []uint64 // set-major: set i holds ways[i*nways : (i+1)*nways]
	nways    int
	setMask  uint64
	lineBits uint
	lineMask uint64 // LineBytes-1
	stats    Stats  // Accesses unused: Stats derives it
}

// The state bits of a way word.
const (
	validBit uint64 = 1 << iota
	dirtyBit
	stateBits = validBit | dirtyBit
)

// New builds a cache, or reports an invalid configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	return &Cache{
		cfg:      cfg,
		ways:     make([]uint64, nsets*cfg.Ways),
		nways:    cfg.Ways,
		setMask:  uint64(nsets - 1),
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		lineMask: uint64(cfg.LineBytes - 1),
	}, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the access counters so far.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Accesses = s.Hits + s.Misses
	return s
}

// AppendState appends the cache's contents to dst: every way word, set
// by set, most recent first. Two caches of one geometry whose states
// are equal serve every later access stream identically.
func (c *Cache) AppendState(dst []uint64) []uint64 { return append(dst, c.ways...) }

// Add accounts for a run of accesses that left the contents as they
// were and moved the statistics by d. d.Accesses is not read: Stats
// derives it from the hits and misses.
func (c *Cache) Add(d Stats) {
	c.stats.Hits += d.Hits
	c.stats.Misses += d.Misses
	c.stats.Evictions += d.Evictions
	c.stats.Writebacks += d.Writebacks
}

// ResidentLines returns how many lines of the address range [lo, hi)
// are resident.
func (c *Cache) ResidentLines(lo, hi uint64) int {
	lo &^= c.lineMask
	n := 0
	for _, w := range c.ways {
		if a := w &^ stateBits; w&validBit != 0 && a >= lo && a < hi {
			n++
		}
	}
	return n
}

// ApplyHits accounts for a run of n accesses that all hit, to lines
// from the line-aligned address lo on: last[i] is the 1-based position
// in the run of the last access to line lo+i*LineBytes, or 0 if the run
// did not touch it, and written[i] reports whether any access wrote it.
// Every touched line must be resident. A hit moves its line to the
// front of its set, so each set ends with its touched lines by last
// access, most recent first, ahead of its other lines in their old
// order, and the written lines dirty: exactly as Access would leave
// it.
func (c *Cache) ApplyHits(lo uint64, last []uint64, written []bool, n uint64) {
	c.stats.Hits += n
	hi := lo + uint64(len(last))<<c.lineBits
	stamp := func(w uint64) uint64 {
		if a := w &^ stateBits; w&validBit != 0 && a >= lo && a < hi {
			return last[(a-lo)>>c.lineBits]
		}
		return 0
	}
	for s := 0; s < len(c.ways); s += c.nways {
		set := c.ways[s : s+c.nways]
		// set[:k] holds the touched ways seen so far, most recent
		// first; set[k:i] the untouched ones, in their old order.
		k := 0
		for i, w := range set {
			t := stamp(w)
			if t == 0 {
				continue
			}
			if written[(w&^stateBits-lo)>>c.lineBits] {
				w |= dirtyBit
			}
			j := k
			for j > 0 && stamp(set[j-1]) < t {
				j--
			}
			copy(set[j+1:i+1], set[j:i])
			set[j] = w
			k++
		}
	}
}

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
	set := c.set(addr)
	key := addr&^c.lineMask | validBit
	var dirty uint64
	if write {
		dirty = dirtyBit
	}
	// One pass finds the line and shifts the ways before it back: prev
	// is the word that moves into way i. A miss ends with every way
	// shifted, the new line at the front and the old last way in prev.
	prev := key | dirty
	for i, w := range set {
		set[i] = prev
		if w&^dirtyBit == key {
			c.stats.Hits++
			set[0] = w | dirty
			return Result{Hit: true}
		}
		prev = w
	}
	c.stats.Misses++
	return c.evict(prev)
}

// Fill inserts addr's line without counting a demand access (used for
// prefetches). It marks the line clean and returns any dirty eviction.
// A line already present is left where it is in LRU order.
func (c *Cache) Fill(addr uint64) Result {
	set := c.set(addr)
	key := addr&^c.lineMask | validBit
	for _, w := range set {
		if w&^dirtyBit == key {
			return Result{Hit: true}
		}
	}
	// Shift every way back, the last one out, and insert at the front.
	res := c.evict(set[len(set)-1])
	for i := len(set) - 1; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = key
	return res
}

// evict accounts for way word v leaving its set, if it holds a line.
func (c *Cache) evict(v uint64) Result {
	var res Result
	if v&validBit != 0 {
		c.stats.Evictions++
		if v&dirtyBit != 0 {
			c.stats.Writebacks++
			res.Writeback = true
			res.WritebackAddr = v &^ stateBits
		}
	}
	return res
}

// set returns the ways of addr's set.
func (c *Cache) set(addr uint64) []uint64 {
	i := int(addr>>c.lineBits&c.setMask) * c.nways
	return c.ways[i : i+c.nways]
}

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }
