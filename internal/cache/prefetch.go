package cache

// StreamPrefetcher models the Pentium M's hardware prefetcher: it
// watches demand misses, detects ascending sequential streams and,
// once a stream is confirmed, requests the next lines ahead of the
// demand accesses.
type StreamPrefetcher struct {
	lineBytes uint64
	streams   []stream
	degree    int
	clock     uint64
	ahead     []uint64 // OnMiss's reused result buffer, degree long

	issued uint64
}

type stream struct {
	nextLine uint64 // next expected miss line address
	conf     int    // confirmation count
	valid    bool
	lru      uint64
}

// NewStreamPrefetcher tracks up to nStreams concurrent streams and
// prefetches degree lines ahead once a stream has two consecutive
// sequential misses.
func NewStreamPrefetcher(lineBytes, nStreams, degree int) *StreamPrefetcher {
	if nStreams <= 0 {
		nStreams = 8
	}
	if degree <= 0 {
		degree = 2
	}
	return &StreamPrefetcher{
		lineBytes: uint64(lineBytes),
		streams:   make([]stream, nStreams),
		degree:    degree,
		ahead:     make([]uint64, degree),
	}
}

// OnMiss records a demand miss at addr and returns the line-aligned
// addresses the prefetcher wants fetched (possibly none). The returned
// slice is valid only until the next call.
func (p *StreamPrefetcher) OnMiss(addr uint64) []uint64 {
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
	p.streams[victim] = stream{nextLine: next, conf: 1, valid: true, lru: p.clock}
	return nil
}

// Issued returns the number of prefetch requests issued.
func (p *StreamPrefetcher) Issued() uint64 { return p.issued }
