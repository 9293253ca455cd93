package telemetry

import (
	"math"
	"runtime/metrics"
)

// runtimeSamples maps a curated set of runtime/metrics samples onto
// exposition-friendly gauge names. Kept small on purpose: the dash
// scrapes these on every /metrics hit, and the full runtime set is
// pprof's job (aapm-serve -pprof).
var runtimeSamples = []struct {
	runtime string // runtime/metrics sample name
	name    string // exposition family name
	help    string
}{
	{"/sched/goroutines:goroutines", "go_goroutines", "Live goroutines."},
	{"/memory/classes/heap/objects:bytes", "go_heap_objects_bytes", "Bytes occupied by live heap objects."},
	{"/memory/classes/total:bytes", "go_memory_total_bytes", "Total bytes mapped by the Go runtime."},
	{"/gc/cycles/total:gc-cycles", "go_gc_cycles", "Completed GC cycles."},
	{"/gc/heap/allocs:bytes", "go_gc_heap_allocs_bytes", "Cumulative bytes allocated on the heap."},
}

// SampleRuntime reads the curated runtime/metrics set into gauges on
// reg. Call it immediately before rendering an exposition so scrapes
// see current values; the self-observation cost is a handful of
// runtime reads per scrape, not per tick.
func SampleRuntime(reg *Registry) {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i := range runtimeSamples {
		samples[i].Name = runtimeSamples[i].runtime
	}
	metrics.Read(samples)
	for i, s := range samples {
		var v float64
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v = s.Value.Float64()
		default:
			// KindBad: the metric does not exist in this Go version.
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		reg.Gauge(runtimeSamples[i].name, runtimeSamples[i].help).With().Set(v)
	}
}
