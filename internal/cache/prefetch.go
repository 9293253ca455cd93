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
// a new stream replaces the least recently allocated-or-continued one.
//
// Streams are kept most recent first. The filled slots are the first
// filled positions; the unfilled ones sit at the tail in ascending slot
// order from the back, so the tail is always the slot a new stream
// takes: the lowest unfilled one, or the least recently used once all
// are filled.
type StreamPrefetcher struct {
	lineBytes uint64
	streams   []stream
	filled    int
	ahead     []uint64 // OnMiss's reused result buffer, degree long

	issued uint64
	ties   uint64
}

// stream is one slot's stream: the miss line it expects next.
type stream struct {
	next uint64
	slot int
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
	streams := make([]stream, nStreams)
	for i := range streams {
		streams[i].slot = nStreams - 1 - i
	}
	return &StreamPrefetcher{
		lineBytes: uint64(lineBytes),
		streams:   streams,
		ahead:     make([]uint64, degree),
	}
}

// OnMiss records a demand miss at addr and returns the line-aligned
// addresses the prefetcher wants fetched (possibly none). The returned
// slice is valid only until the next call.
func (p *StreamPrefetcher) OnMiss(addr uint64) []uint64 {
	next, issued := p.miss(addr)
	if !issued {
		return nil
	}
	for d := range p.ahead {
		p.ahead[d] = next + uint64(d)*p.lineBytes
	}
	return p.ahead
}

// miss records a demand miss at addr and reports whether it continued
// a stream, which issues prefetches of the lines from next on.
func (p *StreamPrefetcher) miss(addr uint64) (next uint64, issued bool) {
	lineAddr := addr &^ (p.lineBytes - 1)
	next = lineAddr + p.lineBytes

	hit, tie := -1, false
	for i, st := range p.streams[:p.filled] {
		if st.next != lineAddr {
			continue
		}
		if hit < 0 {
			hit = i
			continue
		}
		tie = true
		if st.slot < p.streams[hit].slot {
			hit = i
		}
	}
	if tie {
		p.ties++
	}
	if hit < 0 {
		if p.filled < len(p.streams) {
			p.filled++
		}
		p.toFront(len(p.streams)-1, next)
		return next, false
	}
	p.toFront(hit, next)
	p.issued += uint64(len(p.ahead))
	return next, true
}

// Replay records the demand misses of log in order, as OnMiss does.
// Each word of log is a miss address with its low bit set if that miss
// issued prefetches when it was logged, so the line size must be at
// least 2 bytes. Replay stops after the first miss that issues
// differently now and returns its index, or len(log) if every miss
// issued as logged.
func (p *StreamPrefetcher) Replay(log []uint64) int {
	for i, w := range log {
		if _, issued := p.miss(w &^ 1); issued != (w&1 != 0) {
			return i
		}
	}
	return len(log)
}

// CopyFrom makes p an exact copy of src: its streams with their slot
// labels, the filled count and the issued and tie counts. It allocates
// only when p has fewer slots or a different degree than src.
func (p *StreamPrefetcher) CopyFrom(src *StreamPrefetcher) {
	p.lineBytes = src.lineBytes
	p.streams = append(p.streams[:0], src.streams...)
	if len(p.ahead) != len(src.ahead) {
		p.ahead = make([]uint64, len(src.ahead))
	}
	p.filled, p.issued, p.ties = src.filled, src.issued, src.ties
}

// LineBytes returns the line size the prefetcher tracks streams in.
func (p *StreamPrefetcher) LineBytes() int { return int(p.lineBytes) }

// toFront moves the stream at recency position i to the front, now
// expecting line next.
func (p *StreamPrefetcher) toFront(i int, next uint64) {
	s := p.streams[i].slot
	for ; i > 0; i-- {
		p.streams[i] = p.streams[i-1]
	}
	p.streams[0] = stream{next: next, slot: s}
}

// Issued returns the number of prefetch requests issued.
func (p *StreamPrefetcher) Issued() uint64 { return p.issued }

// Ties returns the number of misses that two or more tracked streams
// expected. Only a tie consults slot labels: the lowest slot continues.
func (p *StreamPrefetcher) Ties() uint64 { return p.ties }

// AppendState appends the prefetcher's state without its slot labels to
// dst: the filled slot count, then each stream's expected line, most
// recent first.
func (p *StreamPrefetcher) AppendState(dst []uint64) []uint64 {
	dst = append(dst, uint64(p.filled))
	for _, st := range p.streams {
		dst = append(dst, st.next)
	}
	return dst
}

// AppendSlots appends the slot labels, most recent first, to dst.
func (p *StreamPrefetcher) AppendSlots(dst []int) []int {
	for _, st := range p.streams {
		dst = append(dst, st.slot)
	}
	return dst
}
