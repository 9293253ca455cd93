package cache

import (
	"fmt"
	"math/bits"
)

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
// Each slot keeps the line it expects; an unfilled slot keeps noLine,
// which no miss line equals. The recency order is one word of 4-bit
// slot numbers, most recent in the low nibble. It starts with slot 0
// least recent, then slot 1, and so on, and a filled slot is always
// more recent than an unfilled one, so the least recent slot, which a
// new stream takes, is the lowest unfilled one while any is unfilled.
type StreamPrefetcher struct {
	lineBytes uint64
	next      []uint64 // per slot: the miss line its stream expects, or noLine
	order     uint64   // slot numbers by recency, 4 bits each, most recent lowest
	lru       uint     // bit offset of the least recent slot's nibble
	ahead     []uint64 // OnMiss's reused result buffer, degree long

	issued uint64
}

// maxStreams is the most stream slots a StreamPrefetcher tracks: its
// recency order holds one 4-bit slot number per slot in a word.
const maxStreams = 16

// noLine is the expected line of an unfilled slot. Lines are at least 2
// bytes, so no line-aligned address is odd.
const noLine = 1

// nibbles has a 1 in every nibble of a word.
const nibbles = 0x1111_1111_1111_1111

// NewStreamPrefetcher tracks up to nStreams concurrent streams (8 if
// nStreams <= 0) and prefetches degree lines ahead (2 if degree <= 0)
// once a stream has two consecutive sequential misses. It reports an
// error unless lineBytes is a power of two of at least 2 and nStreams
// is at most 16.
func NewStreamPrefetcher(lineBytes, nStreams, degree int) (*StreamPrefetcher, error) {
	if nStreams <= 0 {
		nStreams = 8
	}
	if degree <= 0 {
		degree = 2
	}
	if lineBytes < 2 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: prefetcher line size %d not a power of two of at least 2", lineBytes)
	}
	if nStreams > maxStreams {
		return nil, fmt.Errorf("cache: %d prefetcher streams, at most %d", nStreams, maxStreams)
	}
	p := &StreamPrefetcher{
		lineBytes: uint64(lineBytes),
		next:      make([]uint64, nStreams),
		lru:       4 * uint(nStreams-1),
		ahead:     make([]uint64, degree),
	}
	for s := range p.next {
		p.next[s] = noLine
		p.order |= uint64(s) << (p.lru - 4*uint(s))
	}
	return p, nil
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
	for s, want := range p.next {
		if want == lineAddr {
			p.next[s] = next
			p.touch(uint64(s))
			p.issued += uint64(len(p.ahead))
			return next, true
		}
	}
	s := p.order >> p.lru
	p.next[s] = next
	// The least recent nibble moves to the front; the shift pushes it
	// past the order's top, which the mask clears.
	p.order = (p.order<<4 | s) & (^uint64(0) >> (60 - p.lru))
	return next, false
}

// touch moves slot s to the front of the recency order. The nibbles of
// order^s*nibbles are zero where s sits (and, for slot 0, in the unused
// nibbles above the order); the borrow trick finds the lowest zero
// nibble (a borrow can flag nibbles above it, never below), and every
// nibble below it moves up one.
func (p *StreamPrefetcher) touch(s uint64) {
	x := p.order ^ s*nibbles
	at := uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) &^ 3
	below := uint64(1)<<at - 1
	p.order = p.order&^(below<<4|0xf) | (p.order&below)<<4 | s
}

// Replay records the demand misses of log in order, as OnMiss does.
// Each word of log is a miss address with its low bit set if that miss
// issued prefetches when it was logged. Replay stops after the first
// miss that issues differently now and returns its index, or len(log)
// if every miss issued as logged.
func (p *StreamPrefetcher) Replay(log []uint64) int {
	for i, w := range log {
		if _, issued := p.miss(w &^ 1); issued != (w&1 != 0) {
			return i
		}
	}
	return len(log)
}

// CopyFrom makes p an exact copy of src: its streams, their recency
// order and the issued count. It allocates only when p has fewer slots
// or a different degree than src.
func (p *StreamPrefetcher) CopyFrom(src *StreamPrefetcher) {
	p.lineBytes = src.lineBytes
	p.next = append(p.next[:0], src.next...)
	if len(p.ahead) != len(src.ahead) {
		p.ahead = make([]uint64, len(src.ahead))
	}
	p.order, p.lru, p.issued = src.order, src.lru, src.issued
}

// Issued returns the number of prefetch requests issued.
func (p *StreamPrefetcher) Issued() uint64 { return p.issued }

// AppendState appends the prefetcher's state without its slot labels to
// dst: the filled slot count, then each stream's expected line, most
// recent first, 0 for an unfilled slot. Filled slots are always more
// recent than unfilled ones.
func (p *StreamPrefetcher) AppendState(dst []uint64) []uint64 {
	filled := 0
	for _, want := range p.next {
		if want != noLine {
			filled++
		}
	}
	dst = append(dst, uint64(filled))
	for at := uint(0); at <= p.lru; at += 4 {
		want := p.next[p.order>>at&0xf]
		if want == noLine {
			want = 0
		}
		dst = append(dst, want)
	}
	return dst
}

// AppendSlots appends the slot labels, most recent first, to dst.
func (p *StreamPrefetcher) AppendSlots(dst []int) []int {
	for at := uint(0); at <= p.lru; at += 4 {
		dst = append(dst, int(p.order>>at&0xf))
	}
	return dst
}
