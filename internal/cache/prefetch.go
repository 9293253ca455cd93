package cache

// StreamPrefetcher models the Pentium M's hardware prefetcher: it
// watches demand misses, detects ascending sequential streams and,
// once a stream is confirmed, requests the next lines ahead of the
// demand accesses.
//
// A stream is allocated on a miss that continues no tracked stream, so
// the next miss that does continue it is its second sequential miss,
// which confirms it: every such miss issues prefetches. Slots are
// filled in index order and never freed. A miss continues the lowest
// filled slot that expects it (two slots can expect the same line), and
// a new stream replaces the least recently allocated-or-continued one,
// read off the tail of a most-recent-first slot order.
type StreamPrefetcher struct {
	lineBytes uint64
	next      []uint64 // per slot: the next expected miss line address
	filled    int      // slots next[:filled] hold streams
	// order lists every slot most recent first. Unfilled slots sit at
	// the tail in ascending index order from the back, so the tail is
	// always the slot a new stream takes: the lowest unfilled one, or
	// the least recently used once all are filled.
	order []int
	ahead []uint64 // OnMiss's reused result buffer, degree long

	issued uint64
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
	order := make([]int, nStreams)
	for i := range order {
		order[i] = nStreams - 1 - i
	}
	return &StreamPrefetcher{
		lineBytes: uint64(lineBytes),
		next:      make([]uint64, nStreams),
		order:     order,
		ahead:     make([]uint64, degree),
	}
}

// OnMiss records a demand miss at addr and returns the line-aligned
// addresses the prefetcher wants fetched (possibly none). The returned
// slice is valid only until the next call.
func (p *StreamPrefetcher) OnMiss(addr uint64) []uint64 {
	lineAddr := addr &^ (p.lineBytes - 1)
	next := lineAddr + p.lineBytes

	for s, want := range p.next[:p.filled] {
		if want == lineAddr {
			p.next[s] = next
			i := 0
			for p.order[i] != s {
				i++
			}
			p.toFront(i)
			p.issued += uint64(len(p.ahead))
			for d := range p.ahead {
				p.ahead[d] = next + uint64(d)*p.lineBytes
			}
			return p.ahead
		}
	}
	tail := len(p.order) - 1
	p.next[p.order[tail]] = next
	if p.filled < len(p.next) {
		p.filled++
	}
	p.toFront(tail)
	return nil
}

// toFront moves the slot at position i of the recency order to the
// front.
func (p *StreamPrefetcher) toFront(i int) {
	s := p.order[i]
	for ; i > 0; i-- {
		p.order[i] = p.order[i-1]
	}
	p.order[0] = s
}

// Issued returns the number of prefetch requests issued.
func (p *StreamPrefetcher) Issued() uint64 { return p.issued }
