// Package spec provides the synthetic SPEC CPU2000 workload suite.
//
// The original study runs the 26 SPEC CPU2000 benchmarks on real
// hardware. Reference inputs and a Pentium M are not available here,
// so each benchmark is modeled as a phase-trace workload whose
// architectural parameters are calibrated to the characterizations the
// paper reports:
//
//   - swim, lucas, equake, mcf, applu and art are memory-bound: high
//     DCU-miss-outstanding occupancy driven by DRAM (not L2) traffic,
//     so their performance barely responds to frequency (Fig. 2,
//     Fig. 7 left).
//   - perlbmk, mesa, eon, crafty and sixtrack are core-bound with low
//     stall rates and scale almost linearly with frequency (Fig. 7
//     right).
//   - crafty and perlbmk have the highest average power (high decode
//     and L2 request rates), followed by galgel; bzip2 sits slightly
//     lower (§IV-A.2).
//   - galgel is bursty, alternating low-power and peak phases, with
//     the highest individual 10 ms power samples of the suite — the
//     workload PM finds hardest to contain (§IV-A.2).
//   - ammp alternates memory- and core-bound regions on a timescale
//     visible in the paper's PM/PS timelines (Fig. 5, Fig. 8).
//   - art and mcf sit in the sparse middle of the training space; with
//     the 0.81 exponent PS violates their floors (art 42.2%, mcf
//     27.7% at the 80% floor), largely repaired by 0.59 (§IV-B.2).
//
// Parameters are expressed as stall budgets per instruction at the
// 2 GHz reference point and converted to the analytic phase model's
// access intensities.
package spec

import (
	"fmt"

	"aapm/internal/phase"
	"aapm/internal/pstate"
)

// Class is the paper's qualitative workload grouping.
type Class int

// Workload classes.
const (
	// CoreBound workloads scale with frequency.
	CoreBound Class = iota
	// MemoryBound workloads are dominated by DRAM latency.
	MemoryBound
	// Mixed workloads alternate or sit between the extremes.
	Mixed
)

// String names the class.
func (c Class) String() string {
	switch c {
	case CoreBound:
		return "core-bound"
	case MemoryBound:
		return "memory-bound"
	case Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// seg is one phase segment: a stall-budget parametrization at the
// 2 GHz reference plus its duration there.
type seg struct {
	name string
	// ms is the segment duration in milliseconds at 2 GHz.
	ms float64
	// c is core CPI; l2 and mem are L2/DRAM stall cycles per
	// instruction at 2 GHz; mlp, spec, stall as in phase.Params.
	c, l2, mem float64
	mlp, spec  float64
	stall      float64
}

// bench is one benchmark definition.
type bench struct {
	name   string
	class  Class
	jitter float64
	// seconds is the approximate full-run duration at 2 GHz.
	seconds float64
	segs    []seg
}

// reference frequency for the stall-budget parametrization.
const refMHz = 2000

// toPhase converts a segment to phase parameters.
//
// Derivation: the analytic model charges (L2APKI/1000)*L2Lat/MLP
// cycles per instruction for L2 stalls (frequency independent) and
// (MemAPKI/1000)*(MemLatNs*f/1000)/MLP for DRAM stalls; equating those
// to the l2/mem budgets at 2 GHz gives the access intensities.
func (s seg) toPhase(ps pstate.PState) (phase.Params, error) {
	l2apki := s.l2 * 1000 * s.mlp / phase.L2LatencyCycles
	memLatCyclesRef := phase.MemLatencyNs * refMHz / 1000
	memapki := s.mem * 1000 * s.mlp / memLatCyclesRef
	if memapki > l2apki {
		return phase.Params{}, fmt.Errorf("spec: segment %q: DRAM intensity %g exceeds L2 intensity %g; raise l2 budget", s.name, memapki, l2apki)
	}
	p := phase.Params{
		Name: s.name,
		// Placeholder so the behaviour query below does not treat the
		// phase as idle; replaced with the duration-derived count.
		Instructions: 1,
		CPICore:      s.c,
		L2APKI:       l2apki,
		MemAPKI:      memapki,
		MemBPI:       memapki * 64 / 1000,
		MLP:          s.mlp,
		SpecFactor:   s.spec,
		StallFrac:    s.stall,
	}
	// Instructions for the segment's duration at the reference state.
	b := p.At(ps)
	p.Instructions = ps.FreqHz() * (s.ms / 1000) * b.IPC
	return p, nil
}

// Workload materializes the benchmark as a runnable phase workload.
func (b bench) workload() (phase.Workload, error) {
	ref, err := pstate.PentiumM755().ByFreq(refMHz)
	if err != nil {
		return phase.Workload{}, err
	}
	var phases []phase.Params
	var perIterMs float64
	for _, s := range b.segs {
		s.name = b.name + "/" + s.name
		p, err := s.toPhase(ref)
		if err != nil {
			return phase.Workload{}, fmt.Errorf("%s: %w", b.name, err)
		}
		phases = append(phases, p)
		perIterMs += s.ms
	}
	iters := int(b.seconds*1000/perIterMs + 0.5)
	if iters < 1 {
		iters = 1
	}
	w := phase.Workload{
		Name:       b.name,
		Phases:     phases,
		Iterations: iters,
		JitterPct:  b.jitter,
	}
	if err := w.Validate(); err != nil {
		return phase.Workload{}, err
	}
	return w, nil
}

// benches defines the whole suite. Stall budgets (l2, mem) are cycles
// per instruction at 2 GHz; see the package comment for the published
// characteristics each entry encodes.
var benches = []bench{
	// --- strongly memory-bound (DRAM-dominated) ---
	{name: "swim", class: MemoryBound, jitter: 0.02, seconds: 26, segs: []seg{
		{name: "stream", ms: 700, c: 0.35, l2: 0.35, mem: 6.0, mlp: 4, spec: 1.30, stall: 0.10},
		{name: "stencil", ms: 300, c: 0.40, l2: 0.40, mem: 5.4, mlp: 4, spec: 1.28, stall: 0.10},
	}},
	{name: "lucas", class: MemoryBound, jitter: 0.02, seconds: 25, segs: []seg{
		{name: "fft", ms: 600, c: 0.45, l2: 0.40, mem: 5.0, mlp: 3, spec: 1.35, stall: 0.10},
		{name: "twiddle", ms: 400, c: 0.42, l2: 0.42, mem: 4.6, mlp: 3, spec: 1.32, stall: 0.10},
	}},
	{name: "equake", class: MemoryBound, jitter: 0.03, seconds: 25, segs: []seg{
		{name: "sparse", ms: 800, c: 0.35, l2: 0.40, mem: 5.2, mlp: 2.5, spec: 1.40, stall: 0.12},
		{name: "assemble", ms: 200, c: 0.40, l2: 0.40, mem: 4.6, mlp: 2.5, spec: 1.38, stall: 0.12},
	}},
	{name: "mcf", class: MemoryBound, jitter: 0.03, seconds: 28, segs: []seg{
		{name: "simplex", ms: 1000, c: 0.629, l2: 0.40, mem: 3.0, mlp: 1.2, spec: 1.45, stall: 0.15},
	}},
	{name: "applu", class: MemoryBound, jitter: 0.02, seconds: 25, segs: []seg{
		{name: "rhs", ms: 600, c: 0.40, l2: 0.45, mem: 5.0, mlp: 3, spec: 1.35, stall: 0.10},
		{name: "blts", ms: 400, c: 0.42, l2: 0.42, mem: 4.6, mlp: 3, spec: 1.33, stall: 0.10},
	}},
	{name: "art", class: MemoryBound, jitter: 0.03, seconds: 28, segs: []seg{
		{name: "scan", ms: 1000, c: 0.896, l2: 1.00, mem: 2.0, mlp: 2, spec: 1.50, stall: 0.15},
	}},

	// --- mixed / in-between ---
	{name: "gap", class: Mixed, jitter: 0.03, seconds: 24, segs: []seg{
		{name: "groups", ms: 700, c: 0.75, l2: 0.50, mem: 0.70, mlp: 2, spec: 1.40, stall: 0.12},
		{name: "gc", ms: 300, c: 0.80, l2: 0.55, mem: 0.60, mlp: 2, spec: 1.38, stall: 0.12},
	}},
	{name: "vpr", class: Mixed, jitter: 0.03, seconds: 24, segs: []seg{
		{name: "place", ms: 600, c: 0.90, l2: 0.45, mem: 0.70, mlp: 1.8, spec: 1.50, stall: 0.14},
		{name: "route", ms: 400, c: 0.85, l2: 0.50, mem: 0.65, mlp: 1.8, spec: 1.48, stall: 0.14},
	}},
	{name: "gcc", class: Mixed, jitter: 0.04, seconds: 22, segs: []seg{
		{name: "parse", ms: 400, c: 0.80, l2: 0.55, mem: 0.60, mlp: 2, spec: 1.60, stall: 0.16},
		{name: "rtl", ms: 400, c: 0.75, l2: 0.60, mem: 0.55, mlp: 2, spec: 1.62, stall: 0.16},
		{name: "regalloc", ms: 200, c: 0.85, l2: 0.50, mem: 0.60, mlp: 2, spec: 1.58, stall: 0.16},
	}},
	{name: "parser", class: Mixed, jitter: 0.03, seconds: 24, segs: []seg{
		{name: "dict", ms: 1000, c: 0.85, l2: 0.50, mem: 0.65, mlp: 1.6, spec: 1.55, stall: 0.14},
	}},
	{name: "facerec", class: Mixed, jitter: 0.02, seconds: 24, segs: []seg{
		{name: "graph", ms: 600, c: 0.70, l2: 0.45, mem: 0.72, mlp: 2.5, spec: 1.35, stall: 0.11},
		{name: "match", ms: 400, c: 0.75, l2: 0.40, mem: 0.60, mlp: 2.5, spec: 1.33, stall: 0.11},
	}},
	{name: "wupwise", class: Mixed, jitter: 0.02, seconds: 24, segs: []seg{
		{name: "zgemm", ms: 1000, c: 0.60, l2: 0.40, mem: 0.75, mlp: 3, spec: 1.30, stall: 0.10},
	}},
	{name: "mgrid", class: MemoryBound, jitter: 0.02, seconds: 25, segs: []seg{
		{name: "resid", ms: 700, c: 0.40, l2: 0.50, mem: 5.0, mlp: 3.5, spec: 1.30, stall: 0.10},
		{name: "interp", ms: 300, c: 0.42, l2: 0.48, mem: 4.5, mlp: 3.5, spec: 1.28, stall: 0.10},
	}},
	{name: "apsi", class: Mixed, jitter: 0.02, seconds: 24, segs: []seg{
		{name: "fields", ms: 1000, c: 0.70, l2: 0.50, mem: 0.68, mlp: 2.2, spec: 1.35, stall: 0.11},
	}},
	{name: "fma3d", class: Mixed, jitter: 0.02, seconds: 24, segs: []seg{
		{name: "elements", ms: 1000, c: 0.65, l2: 0.45, mem: 0.70, mlp: 2.4, spec: 1.35, stall: 0.11},
	}},
	{name: "ammp", class: Mixed, jitter: 0.03, seconds: 32, segs: []seg{
		{name: "neighbor", ms: 900, c: 0.35, l2: 0.45, mem: 5.00, mlp: 2, spec: 1.35, stall: 0.12},
		{name: "force", ms: 700, c: 0.55, l2: 0.25, mem: 0.15, mlp: 2, spec: 1.35, stall: 0.10},
	}},
	{name: "vortex", class: Mixed, jitter: 0.03, seconds: 23, segs: []seg{
		{name: "oodb", ms: 1000, c: 0.70, l2: 0.55, mem: 0.50, mlp: 1.8, spec: 1.55, stall: 0.14},
	}},
	{name: "gzip", class: Mixed, jitter: 0.03, seconds: 22, segs: []seg{
		{name: "deflate", ms: 600, c: 0.75, l2: 0.40, mem: 0.45, mlp: 1.8, spec: 1.50, stall: 0.13},
		{name: "inflate", ms: 400, c: 0.70, l2: 0.35, mem: 0.35, mlp: 1.8, spec: 1.48, stall: 0.13},
	}},
	// galgel alternates: short full-pipeline bursts (the suite's highest
	// individual samples), an L2-request-heavy stretch whose power the
	// DPC-only model underestimates (the source of its PM limit
	// violations at 13.5 W), and lower-activity stretches long enough
	// for PM's 100 ms up-shift hysteresis to fire.
	{name: "galgel", class: Mixed, jitter: 0.04, seconds: 26, segs: []seg{
		{name: "peak", ms: 50, c: 0.48, l2: 0.10, mem: 0.02, mlp: 3, spec: 1.25, stall: 0.08},
		{name: "low", ms: 50, c: 0.75, l2: 0.50, mem: 0.30, mlp: 2, spec: 1.69, stall: 0.12},
		{name: "quiet", ms: 130, c: 0.75, l2: 0.50, mem: 0.30, mlp: 2, spec: 1.69, stall: 0.12},
		{name: "l2heavy", ms: 100, c: 0.984, l2: 0.150, mem: 0.02, mlp: 16, spec: 1.212, stall: 0.10},
	}},
	{name: "bzip2", class: Mixed, jitter: 0.03, seconds: 23, segs: []seg{
		{name: "sort", ms: 700, c: 0.55, l2: 0.25, mem: 0.35, mlp: 2, spec: 1.85, stall: 0.12},
		{name: "huffman", ms: 300, c: 0.60, l2: 0.30, mem: 0.40, mlp: 2, spec: 1.82, stall: 0.12},
	}},
	{name: "twolf", class: CoreBound, jitter: 0.03, seconds: 24, segs: []seg{
		{name: "anneal", ms: 1000, c: 1.00, l2: 0.50, mem: 0.30, mlp: 1.5, spec: 1.50, stall: 0.14},
	}},

	// --- core-bound ---
	{name: "perlbmk", class: CoreBound, jitter: 0.02, seconds: 22, segs: []seg{
		{name: "interp", ms: 1000, c: 0.52, l2: 0.12, mem: 0.03, mlp: 2, spec: 1.20, stall: 0.08},
	}},
	{name: "mesa", class: CoreBound, jitter: 0.02, seconds: 22, segs: []seg{
		{name: "raster", ms: 1000, c: 0.70, l2: 0.15, mem: 0.05, mlp: 2, spec: 1.10, stall: 0.08},
	}},
	{name: "eon", class: CoreBound, jitter: 0.02, seconds: 22, segs: []seg{
		{name: "raytrace", ms: 1000, c: 0.75, l2: 0.08, mem: 0.01, mlp: 2, spec: 1.05, stall: 0.07},
	}},
	{name: "crafty", class: CoreBound, jitter: 0.02, seconds: 22, segs: []seg{
		{name: "search", ms: 1000, c: 0.50, l2: 0.10, mem: 0.02, mlp: 2, spec: 1.18, stall: 0.08},
	}},
	{name: "sixtrack", class: CoreBound, jitter: 0.02, seconds: 24, segs: []seg{
		{name: "track", ms: 1000, c: 0.73, l2: 0.05, mem: 0.005, mlp: 2, spec: 1.04, stall: 0.06},
	}},
}

// Names returns all benchmark names in suite order.
func Names() []string {
	out := make([]string, len(benches))
	for i, b := range benches {
		out[i] = b.name
	}
	return out
}

// ClassOf returns the paper's qualitative class for a benchmark.
func ClassOf(name string) (Class, error) {
	for _, b := range benches {
		if b.name == name {
			return b.class, nil
		}
	}
	return 0, fmt.Errorf("spec: unknown benchmark %q", name)
}

// ByName materializes one benchmark.
func ByName(name string) (phase.Workload, error) {
	for _, b := range benches {
		if b.name == name {
			return b.workload()
		}
	}
	return phase.Workload{}, fmt.Errorf("spec: unknown benchmark %q", name)
}

// All materializes the whole suite in suite order.
func All() ([]phase.Workload, error) {
	out := make([]phase.Workload, 0, len(benches))
	for _, b := range benches {
		w, err := b.workload()
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}
