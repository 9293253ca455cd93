// Package counters models the performance monitoring unit (PMU) of the
// simulated Pentium M platform.
//
// The real Pentium M exposes two programmable counters selecting among
// 92 events; the paper's driver samples them every 10 ms. This package
// keeps the full event set the paper's analysis uses and exposes
// per-interval rate snapshots. Controllers are expected to consume only
// the events a real deployment would program (PM: decoded instructions;
// PS: retired instructions and DCU miss outstanding cycles).
package counters

import "fmt"

// Event identifies a PMU event the simulated platform accumulates.
type Event int

// Events used by the paper's models and workload characterization.
const (
	// Cycles counts elapsed core clock cycles.
	Cycles Event = iota
	// InstDecoded counts decoded instructions, including speculative
	// work on wrong paths (the power model's activity proxy).
	InstDecoded
	// InstRetired counts architecturally completed instructions
	// (the performance model's throughput proxy).
	InstRetired
	// DCUMissOutstanding counts cycles in which the L1 data cache has
	// at least one miss outstanding.
	DCUMissOutstanding
	// L2Requests counts L2 cache accesses (L1 misses plus prefetches).
	L2Requests
	// MemRequests counts bus (DRAM) accesses, i.e. L2 misses.
	MemRequests
	// ResourceStalls counts cycles the allocator is stalled for
	// machine resources.
	ResourceStalls

	numEvents
)

// NumEvents is the number of distinct events a Bank accumulates.
const NumEvents = int(numEvents)

var eventNames = [...]string{
	Cycles:             "cycles",
	InstDecoded:        "inst_decoded",
	InstRetired:        "inst_retired",
	DCUMissOutstanding: "dcu_miss_outstanding",
	L2Requests:         "l2_requests",
	MemRequests:        "mem_requests",
	ResourceStalls:     "resource_stalls",
}

// String returns the event's canonical lowercase name.
func (e Event) String() string {
	if e < 0 || int(e) >= NumEvents {
		return fmt.Sprintf("event(%d)", int(e))
	}
	return eventNames[e]
}

// Sample is the event activity within one monitoring interval.
type Sample struct {
	counts [numEvents]uint64
}

// Count returns the interval count for event e.
func (s Sample) Count(e Event) uint64 { return s.counts[e] }

// SetCount sets the interval count for event e (used by the platform
// when synthesizing interval activity).
func (s *Sample) SetCount(e Event, n uint64) { s.counts[e] = n }

// Cycles returns the interval's elapsed core cycles.
func (s Sample) Cycles() float64 { return float64(s.counts[Cycles]) }

// rate returns count/cycles, or 0 for an empty interval.
func (s Sample) rate(e Event) float64 {
	c := s.counts[Cycles]
	if c == 0 {
		return 0
	}
	return float64(s.counts[e]) / float64(c)
}

// DPC returns decoded instructions per cycle, the power model input.
func (s Sample) DPC() float64 { return s.rate(InstDecoded) }

// IPC returns retired instructions per cycle, the performance proxy.
func (s Sample) IPC() float64 { return s.rate(InstRetired) }

// DCU returns DCU-miss-outstanding cycles per cycle (0..1).
func (s Sample) DCU() float64 { return s.rate(DCUMissOutstanding) }

// L2PC returns L2 requests per cycle.
func (s Sample) L2PC() float64 { return s.rate(L2Requests) }

// MemPC returns memory (bus) requests per cycle.
func (s Sample) MemPC() float64 { return s.rate(MemRequests) }

// StallPC returns resource-stall cycles per cycle.
func (s Sample) StallPC() float64 { return s.rate(ResourceStalls) }

// PowerRates returns the four power-model input rates — DPC, L2PC,
// MemPC, DCU — with the cycle count converted to float64 once. Each
// rate is the same division rate() performs, so results are
// bit-identical to calling the accessors individually.
func (s *Sample) PowerRates() (dpc, l2pc, mempc, dcu float64) {
	c := s.counts[Cycles]
	if c == 0 {
		return 0, 0, 0, 0
	}
	cf := float64(c)
	return float64(s.counts[InstDecoded]) / cf,
		float64(s.counts[L2Requests]) / cf,
		float64(s.counts[MemRequests]) / cf,
		float64(s.counts[DCUMissOutstanding]) / cf
}

// DCUPerInst returns DCU miss outstanding cycles per retired
// instruction — the paper's memory-boundedness measure (DCU/IPC).
// It returns 0 when no instructions retired in the interval.
func (s Sample) DCUPerInst() float64 {
	r := s.counts[InstRetired]
	if r == 0 {
		return 0
	}
	return float64(s.counts[DCUMissOutstanding]) / float64(r)
}

// Accumulate adds the interval activity of other into s.
func (s *Sample) Accumulate(other Sample) {
	for i := range s.counts {
		s.counts[i] += other.counts[i]
	}
}

// MaxPlausibleRate bounds per-cycle event rates on a real core: a
// 3-wide machine cannot decode, retire or issue more than a few
// events per cycle, so rates far above it indicate a corrupted
// sample (e.g. a wrapped counter delta).
const MaxPlausibleRate = 8.0

// Implausible reports whether the sample is physically impossible on
// live hardware: event counts without elapsed cycles, or any
// per-cycle rate beyond MaxPlausibleRate. An all-zero sample is NOT
// implausible — it is indistinguishable from an idle (halted)
// interval or a missed read; callers that need to tell those apart
// must use history.
func (s Sample) Implausible() bool {
	c := s.counts[Cycles]
	if c == 0 {
		for _, n := range s.counts {
			if n != 0 {
				return true
			}
		}
		return false
	}
	for e := Event(0); e < numEvents; e++ {
		if e == Cycles {
			continue
		}
		if float64(s.counts[e]) > MaxPlausibleRate*float64(c) {
			return true
		}
	}
	return false
}
