package cache

// This file is a verbatim copy of the timestamp-LRU cache and stream
// prefetcher the MRU-ordered implementation replaced (types renamed
// with a ref prefix). FuzzCacheMatchesReference drives both side by
// side: the ordered layout must be observably identical to stamping
// every touched line with a fresh clock value and evicting the
// smallest stamp.

import (
	"math/bits"
)

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set logical timestamp; larger = more recent.
	lru uint64
}

// refCache is one set-associative, write-back, write-allocate level.
type refCache struct {
	cfg      Config
	lines    []refLine // set-major: set i holds lines[i*ways : (i+1)*ways]
	ways     int
	setMask  uint64
	lineBits uint
	tagShift uint // bits of the set index, stripped from a line address
	clock    uint64
	stats    Stats
}

// newRefCache builds a cache, or reports an invalid configuration.
func newRefCache(cfg Config) (*refCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	return &refCache{
		cfg:      cfg,
		lines:    make([]refLine, nsets*cfg.Ways),
		ways:     cfg.Ways,
		setMask:  uint64(nsets - 1),
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tagShift: uint(bits.TrailingZeros(uint(nsets))),
	}, nil
}

// Config returns the cache geometry.
func (c *refCache) Config() Config { return c.cfg }

// Stats returns the access counters so far.
func (c *refCache) Stats() Stats { return c.stats }

// Access looks up addr, allocating on miss (write-allocate). write
// marks the line dirty. The returned Result reports hit/miss and any
// dirty eviction the allocation caused.
func (c *refCache) Access(addr uint64, write bool) Result {
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
	set[victim] = refLine{tag: tag, valid: true, dirty: write, lru: c.clock}
	return res
}

// Contains reports whether addr's line is resident, without touching
// LRU state or statistics.
func (c *refCache) Contains(addr uint64) bool {
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
func (c *refCache) Fill(addr uint64) Result {
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
	set[victim] = refLine{tag: tag, valid: true, lru: c.clock}
	return res
}

// set returns the ways of lineAddr's set.
func (c *refCache) set(lineAddr uint64) []refLine {
	i := int(lineAddr&c.setMask) * c.ways
	return c.lines[i : i+c.ways]
}

func (c *refCache) rebuild(tag, setIdx uint64) uint64 {
	return (tag<<c.tagShift | setIdx) << c.lineBits
}

// LineBytes returns the line size in bytes.
func (c *refCache) LineBytes() int { return c.cfg.LineBytes }

// refStreamPrefetcher models the Pentium M's hardware prefetcher: it
// watches demand misses, detects ascending sequential streams and,
// once a stream is confirmed, requests the next lines ahead of the
// demand accesses.
type refStreamPrefetcher struct {
	lineBytes uint64
	streams   []refStream
	degree    int
	clock     uint64
	ahead     []uint64 // OnMiss's reused result buffer, degree long

	issued uint64
}

type refStream struct {
	nextLine uint64 // next expected miss line address
	conf     int    // confirmation count
	valid    bool
	lru      uint64
}

// newRefStreamPrefetcher tracks up to nStreams concurrent streams and
// prefetches degree lines ahead once a stream has two consecutive
// sequential misses.
func newRefStreamPrefetcher(lineBytes, nStreams, degree int) *refStreamPrefetcher {
	if nStreams <= 0 {
		nStreams = 8
	}
	if degree <= 0 {
		degree = 2
	}
	return &refStreamPrefetcher{
		lineBytes: uint64(lineBytes),
		streams:   make([]refStream, nStreams),
		degree:    degree,
		ahead:     make([]uint64, degree),
	}
}

// OnMiss records a demand miss at addr and returns the line-aligned
// addresses the prefetcher wants fetched (possibly none). The returned
// slice is valid only until the next call.
func (p *refStreamPrefetcher) OnMiss(addr uint64) []uint64 {
	p.clock++
	lineAddr := addr &^ (p.lineBytes - 1)
	next := lineAddr + p.lineBytes

	// Existing stream hit?
	for i := range p.streams {
		s := &p.streams[i]
		if s.valid && lineAddr == s.nextLine {
			s.conf++
			s.nextLine = next
			s.lru = p.clock
			if s.conf >= 2 {
				p.issued += uint64(p.degree)
				for d := range p.ahead {
					p.ahead[d] = next + uint64(d)*p.lineBytes
				}
				return p.ahead
			}
			return nil
		}
	}
	// Allocate a new stream over the LRU slot.
	victim := 0
	for i := range p.streams {
		if !p.streams[i].valid {
			victim = i
			break
		}
		if p.streams[i].lru < p.streams[victim].lru {
			victim = i
		}
	}
	p.streams[victim] = refStream{nextLine: next, conf: 1, valid: true, lru: p.clock}
	return nil
}

// Issued returns the number of prefetch requests issued.
func (p *refStreamPrefetcher) Issued() uint64 { return p.issued }
