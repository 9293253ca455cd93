// Package phase defines the analytic workload descriptor the simulated
// platform executes.
//
// A workload is a sequence of phases. Each phase is characterized by a
// small set of frequency-independent architectural parameters (core
// CPI, cache/memory access intensities, memory-level parallelism,
// speculation factor). From those parameters the package evaluates, in
// closed form, the behaviour at any p-state: IPC, decode rate, data
// cache stall occupancy, L2/bus traffic. The key physics:
//
//   - Core execution and on-chip (L1/L2) latencies cost a fixed number
//     of cycles per instruction, so their wall-clock cost scales with
//     1/f — core-bound phases speed up linearly with frequency.
//   - DRAM latency is fixed wall-clock time, so its cost in cycles
//     grows with f — memory-bound phases gain little from frequency.
//
// This is exactly the dichotomy the paper's Figure 2 shows (sixtrack
// vs swim) and the reason its performance model classifies on DCU/IPC.
package phase

import (
	"fmt"
	"time"

	"aapm/internal/pstate"
)

// Machine timing constants of the simulated Pentium M memory hierarchy.
const (
	// L2LatencyCycles is the L2 hit latency in core cycles. On-chip,
	// so constant in cycles across p-states.
	L2LatencyCycles = 10.0
	// MemLatencyNs is the DRAM access latency in nanoseconds, constant
	// in wall-clock time across p-states.
	MemLatencyNs = 90.0
	// MemBandwidthGBs is the sustained DRAM bandwidth. Streaming
	// phases whose traffic outruns it are bandwidth-bound: their
	// per-instruction memory time is traffic/bandwidth even when
	// prefetching hides the latency.
	MemBandwidthGBs = 2.7
)

// Params describes one execution phase.
type Params struct {
	// Name labels the phase for traces.
	Name string
	// Instructions is the number of instructions the phase retires.
	// A phase with zero instructions and a positive IdleDuration is an
	// idle period (the processor halts; only base power is drawn).
	Instructions float64
	// IdleDuration is the wall-clock length of an idle phase. Ignored
	// when Instructions > 0.
	IdleDuration time.Duration
	// CPICore is cycles per instruction assuming all memory references
	// hit in the L1 data cache. Frequency independent.
	CPICore float64
	// L2APKI is L2 accesses (L1 data misses) per kilo-instruction.
	L2APKI float64
	// MemAPKI is DRAM (bus) accesses per kilo-instruction on the
	// demand path (latency-critical misses).
	MemAPKI float64
	// MemBPI is total DRAM traffic in bytes per instruction including
	// prefetch and writeback transfers; it bounds throughput via the
	// bandwidth ceiling even when prefetching hides latency.
	MemBPI float64
	// MLP is the memory-level parallelism: how many outstanding misses
	// overlap on average, dividing the effective stall latency. >= 1.
	MLP float64
	// SpecFactor is decoded instructions per retired instruction
	// (speculative wrong-path and refused work), >= 1.
	SpecFactor float64
	// StallFrac is the baseline resource-stall occupancy independent
	// of data-cache misses (0..1).
	StallFrac float64
}

// Validate reports the first implausible parameter, if any.
func (p Params) Validate() error {
	switch {
	case p.Instructions < 0:
		return fmt.Errorf("phase %q: negative instructions", p.Name)
	case p.Instructions == 0 && p.IdleDuration <= 0:
		return fmt.Errorf("phase %q: empty phase (no instructions, no idle duration)", p.Name)
	case p.Instructions > 0 && p.CPICore <= 0:
		return fmt.Errorf("phase %q: CPICore must be positive", p.Name)
	case p.L2APKI < 0 || p.MemAPKI < 0 || p.MemBPI < 0:
		return fmt.Errorf("phase %q: negative access intensity", p.Name)
	case p.MemAPKI > p.L2APKI+1e-9 && p.L2APKI > 0:
		return fmt.Errorf("phase %q: MemAPKI %g exceeds L2APKI %g (misses cannot exceed accesses)", p.Name, p.MemAPKI, p.L2APKI)
	case p.Instructions > 0 && p.MLP < 1:
		return fmt.Errorf("phase %q: MLP must be >= 1", p.Name)
	case p.Instructions > 0 && p.SpecFactor < 1:
		return fmt.Errorf("phase %q: SpecFactor must be >= 1", p.Name)
	case p.StallFrac < 0 || p.StallFrac > 1:
		return fmt.Errorf("phase %q: StallFrac outside [0,1]", p.Name)
	}
	return nil
}

// Idle reports whether the phase is an idle (halted) period. The
// receiver is a pointer because the tick engine asks on every phase it
// visits, and an inlined call on a value receiver still copies the
// whole Params.
func (p *Params) Idle() bool { return p.Instructions == 0 }

// Behavior is the closed-form per-cycle behaviour of a phase at one
// p-state.
type Behavior struct {
	// CPI is total cycles per retired instruction.
	CPI float64
	// IPC is retired instructions per cycle (1/CPI).
	IPC float64
	// DPC is decoded instructions per cycle.
	DPC float64
	// DCU is the DCU-miss-outstanding cycle occupancy (0..1).
	DCU float64
	// L2PC and MemPC are L2/bus requests per cycle.
	L2PC, MemPC float64
	// StallPC is resource-stall cycles per cycle.
	StallPC float64
}

// At evaluates the phase at p-state ps. Idle phases return a zero
// Behavior (no activity).
func (p Params) At(ps pstate.PState) Behavior {
	if p.Idle() {
		return Behavior{}
	}
	memLatCycles := MemLatencyNs * float64(ps.FreqMHz) / 1000.0
	l2Stall := p.L2APKI / 1000.0 * L2LatencyCycles / p.MLP
	memStall := p.MemAPKI / 1000.0 * memLatCycles / p.MLP
	// Bandwidth bound: bytes/instr over GB/s gives ns/instr, times f
	// gives cycles/instr. Takes over from the latency path when the
	// stream outruns DRAM.
	if bw := p.MemBPI / MemBandwidthGBs * float64(ps.FreqMHz) / 1000.0; bw > memStall {
		memStall = bw
	}
	cpi := p.CPICore + l2Stall + memStall
	ipc := 1.0 / cpi
	stallPerInst := l2Stall + memStall
	dcu := stallPerInst / cpi // fraction of cycles with a miss outstanding
	if dcu > 0.98 {
		dcu = 0.98
	}
	stall := p.StallFrac + 0.3*dcu
	if stall > 1 {
		stall = 1
	}
	// Bus requests per instruction: demand misses, or total traffic in
	// lines when prefetch/writeback streams dominate.
	memRPI := p.MemAPKI / 1000.0
	if lines := p.MemBPI / 64.0; lines > memRPI {
		memRPI = lines
	}
	return Behavior{
		CPI:     cpi,
		IPC:     ipc,
		DPC:     p.SpecFactor * ipc,
		DCU:     dcu,
		L2PC:    p.L2APKI / 1000.0 * ipc,
		MemPC:   memRPI * ipc,
		StallPC: stall,
	}
}

// StallPerInst returns DCU-outstanding cycles per retired instruction
// at p-state ps — the paper's DCU/IPC memory-boundedness measure.
func (p Params) StallPerInst(ps pstate.PState) float64 {
	if p.Idle() {
		return 0
	}
	b := p.At(ps)
	return b.DCU / b.IPC
}

// TimeAt returns the wall-clock duration of the whole phase at ps.
func (p Params) TimeAt(ps pstate.PState) time.Duration {
	if p.Idle() {
		return p.IdleDuration
	}
	cycles := p.Instructions * p.At(ps).CPI
	return time.Duration(cycles / ps.FreqHz() * float64(time.Second))
}

// Workload is a named sequence of phases, optionally repeated.
type Workload struct {
	// Name identifies the workload (e.g. "swim").
	Name string
	// Phases execute in order; the whole list repeats Iterations times.
	Phases []Params
	// Iterations is the repeat count for the phase list; 0 means 1.
	Iterations int
	// JitterPct is the relative amplitude of per-interval activity
	// jitter the platform applies (0 = perfectly stable, as for the
	// MS-Loops microbenchmarks; bursty workloads such as galgel use
	// larger values).
	JitterPct float64
}

// Validate checks every phase.
func (w Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("workload has no name")
	}
	if len(w.Phases) == 0 {
		return fmt.Errorf("workload %q has no phases", w.Name)
	}
	for _, p := range w.Phases {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("workload %q: %w", w.Name, err)
		}
	}
	if w.JitterPct < 0 || w.JitterPct > 0.5 {
		return fmt.Errorf("workload %q: JitterPct %g outside [0,0.5]", w.Name, w.JitterPct)
	}
	return nil
}

// Repeats returns the effective iteration count (at least 1).
func (w Workload) Repeats() int {
	if w.Iterations < 1 {
		return 1
	}
	return w.Iterations
}

// TotalInstructions returns the instructions retired by a full run.
func (w Workload) TotalInstructions() float64 {
	var per float64
	for _, p := range w.Phases {
		per += p.Instructions
	}
	return per * float64(w.Repeats())
}

// TimeAt returns the full-run duration at a fixed p-state.
func (w Workload) TimeAt(ps pstate.PState) time.Duration {
	var per time.Duration
	for _, p := range w.Phases {
		per += p.TimeAt(ps)
	}
	return per * time.Duration(w.Repeats())
}

// AvgIPCAt returns the run-average IPC at a fixed p-state
// (instructions divided by total cycles, idle phases excluded from
// cycles only if the whole workload is non-idle).
func (w Workload) AvgIPCAt(ps pstate.PState) float64 {
	var instr, cycles float64
	for _, p := range w.Phases {
		if p.Idle() {
			cycles += ps.FreqHz() * p.IdleDuration.Seconds()
			continue
		}
		instr += p.Instructions
		cycles += p.Instructions * p.At(ps).CPI
	}
	if cycles == 0 {
		return 0
	}
	return instr / cycles
}
