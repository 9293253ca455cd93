// Package telemetry is the live observability layer over the tick
// engine and the cluster coordinator: a dependency-free metrics
// registry (counters, gauges, fixed-bucket histograms with labeled
// series) fed by Hook-bus subscribers, exported as Prometheus text
// exposition and as a JSON snapshot, plus a Chrome trace-event
// (Perfetto) exporter for loading runs into a standard trace viewer.
//
// Telemetry is strictly observational: observers subscribe to the
// Hook bus like any other consumer and never mutate the session, so
// golden traces stay byte-identical with telemetry enabled, and with
// no subscriber attached the engine pays nothing beyond the existing
// bus fan-out (TestTelemetryOffOverhead, budget ≤5%).
//
// The registry is safe for concurrent use: cluster workers feed
// series from their stepping goroutines while a scrape renders the
// exposition — per-series mutexes serialize the writes, a registry
// RWMutex the family set.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Kind is a metric family's type.
type Kind uint8

const (
	// KindCounter is a monotonically increasing total.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds a set of metric families. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*Family)}
}

// Family is one named metric with a fixed label-key set and one
// series per label-value combination.
type Family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, strictly increasing; +Inf implicit

	mu     sync.Mutex
	series map[string]*Series
}

// Counter registers (or returns the existing) counter family.
// Re-registration with a different kind, help or label set panics:
// family identity is a programming contract, not runtime input.
func (r *Registry) Counter(name, help string, labels ...string) *Family {
	return r.family(name, help, KindCounter, nil, labels)
}

// Gauge registers (or returns the existing) gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Family {
	return r.family(name, help, KindGauge, nil, labels)
}

// Histogram registers (or returns the existing) histogram family with
// the given bucket upper bounds (strictly increasing; a final +Inf
// bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Family {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %s has no buckets", name))
	}
	for i, b := range buckets {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("telemetry: histogram %s bucket %d is not finite", name, i))
		}
		if i > 0 && b <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s buckets not strictly increasing at %d", name, i))
		}
	}
	bs := make([]float64, len(buckets))
	copy(bs, buckets)
	return r.family(name, help, KindHistogram, bs, labels)
}

func (r *Registry) family(name, help string, kind Kind, buckets []float64, labels []string) *Family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("telemetry: invalid label key %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.help != help || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("telemetry: conflicting re-registration of %s", name))
		}
		return f
	}
	f := &Family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: buckets,
		series:  make(map[string]*Series),
	}
	r.families[name] = f
	return f
}

// Name returns the family name.
func (f *Family) Name() string { return f.name }

// Kind returns the family type.
func (f *Family) Kind() Kind { return f.kind }

// With returns the series for the given label values (created on
// first use), in the family's declared label-key order. The returned
// handle is stable — hot paths should cache it rather than re-resolve
// per event. Panics on arity mismatch.
func (f *Family) With(labelValues ...string) *Series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &Series{f: f, labels: append([]string(nil), labelValues...)}
	if f.kind == KindHistogram {
		s.counts = make([]uint64, len(f.buckets)+1)
	}
	f.series[key] = s
	return s
}

// Series is one labeled time series. All methods are safe for
// concurrent use.
type Series struct {
	f      *Family
	labels []string

	mu     sync.Mutex
	val    float64  // counter total or gauge value
	sum    float64  // histogram sum of observations
	count  uint64   // histogram observation count
	counts []uint64 // histogram per-bucket (non-cumulative) counts; last = +Inf
}

// Inc adds 1 to a counter.
func (s *Series) Inc() { s.Add(1) }

// Add increases a counter by v (v must be non-negative and finite;
// NaN and negative deltas are dropped — fault-corrupted observations
// must not poison totals).
func (s *Series) Add(v float64) {
	if s.f.kind != KindCounter {
		panic(fmt.Sprintf("telemetry: Add on non-counter %s", s.f.name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return
	}
	s.mu.Lock()
	s.val += v
	s.mu.Unlock()
}

// Set sets a gauge (NaN/Inf are dropped, keeping the last good value).
func (s *Series) Set(v float64) {
	if s.f.kind != KindGauge {
		panic(fmt.Sprintf("telemetry: Set on non-gauge %s", s.f.name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	s.mu.Lock()
	s.val = v
	s.mu.Unlock()
}

// Observe records one histogram sample (NaN/Inf are dropped).
func (s *Series) Observe(v float64) {
	if s.f.kind != KindHistogram {
		panic(fmt.Sprintf("telemetry: Observe on non-histogram %s", s.f.name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	i := sort.SearchFloat64s(s.f.buckets, v) // first bucket with bound >= v
	s.mu.Lock()
	s.counts[i]++
	s.count++
	s.sum += v
	s.mu.Unlock()
}

// Value returns a counter's total or a gauge's current value.
func (s *Series) Value() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.val
}

// Count returns a histogram's observation count.
func (s *Series) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of a histogram by
// linear interpolation within the bucket holding the target rank,
// the standard Prometheus histogram_quantile estimate. The +Inf
// bucket clamps to the largest finite bound. Returns NaN before any
// observation or for q outside [0,1].
func (s *Series) Quantile(q float64) float64 {
	if s.f.kind != KindHistogram {
		panic(fmt.Sprintf("telemetry: Quantile on non-histogram %s", s.f.name))
	}
	if math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return math.NaN()
	}
	rank := q * float64(s.count)
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(s.f.buckets) {
			// Target rank lands in +Inf: clamp to the largest finite
			// bound, as histogram_quantile does.
			return s.f.buckets[len(s.f.buckets)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.f.buckets[i-1]
		}
		hi := s.f.buckets[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lo + (hi-lo)*frac
	}
	return s.f.buckets[len(s.f.buckets)-1]
}

// snapshotLocked returns the family's series sorted by label values.
func (f *Family) sortedSeries() []*Series {
	f.mu.Lock()
	out := make([]*Series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labels, out[j].labels
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// sortedFamilies returns the registry's families sorted by name.
func (r *Registry) sortedFamilies() []*Family {
	r.mu.RLock()
	out := make([]*Family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// validName reports whether s is a legal Prometheus metric or label
// name: [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
