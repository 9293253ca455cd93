package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (NaN for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest folds simulated outputs into a short hex fingerprint.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) float(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) int(v int64) { d.u64(uint64(v)) }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) bytes(b []byte) {
	d.int(int64(len(b)))
	d.h.Write(b)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }
