// Powercap: PerformanceMaximizer with runtime power-limit changes.
//
// The paper's PM prototype accepts a new power limit at any instant
// (delivered as SIGUSR1/SIGUSR2) so the system can ride through
// partial supply or cooling failures at the best still-safe
// performance (§IV-A). This example reproduces that scenario: the
// budget collapses from 17.5 W to 11.5 W mid-run — a failed fan — and
// recovers later.
package main

import (
	"fmt"
	"log"
	"time"

	"aapm"
)

// limitSchedule wraps a PerformanceMaximizer and applies timed limit
// changes, the simulation analogue of the prototype's signal handler.
type limitSchedule struct {
	pm      *aapm.PerformanceMaximizer
	changes []limitChange
}

type limitChange struct {
	at     time.Duration
	limitW float64
}

func (s *limitSchedule) Name() string { return s.pm.Name() + "+schedule" }

// Tick applies any limit change that is due, then lets PM decide,
// passing PM's degradations through.
func (s *limitSchedule) Tick(info *aapm.TickInfo) (int, []aapm.Degradation) {
	for len(s.changes) > 0 && info.Now >= s.changes[0].at {
		fmt.Printf("t=%5.1fs: power limit -> %.1f W\n",
			info.Now.Seconds(), s.changes[0].limitW)
		s.pm.SetLimit(s.changes[0].limitW)
		s.changes = s.changes[1:]
	}
	return s.pm.Tick(info)
}

func main() {
	m, err := aapm.NewPlatform(aapm.PlatformConfig{Seed: 42, Chain: aapm.NIChain()})
	if err != nil {
		log.Fatal(err)
	}
	// crafty is the suite's highest-power workload — the one a failing
	// cooling budget hurts most.
	w, err := aapm.Workload("crafty")
	if err != nil {
		log.Fatal(err)
	}

	pm, err := aapm.NewPerformanceMaximizer(aapm.PMConfig{LimitW: 17.5})
	if err != nil {
		log.Fatal(err)
	}
	gov := &limitSchedule{
		pm: pm,
		changes: []limitChange{
			{at: 8 * time.Second, limitW: 11.5},  // fan failure
			{at: 16 * time.Second, limitW: 17.5}, // repaired
		},
	}
	run, err := m.Run(w, gov)
	if err != nil {
		log.Fatal(err)
	}

	// Per-second residency digest: watch the policy track the budget.
	fmt.Printf("\n%6s %9s %9s\n", "t(s)", "avg MHz", "avg W")
	var secMHz, secW float64
	var secDur time.Duration
	next := time.Second
	for _, row := range run.Rows {
		secMHz += float64(row.FreqMHz) * row.Interval.Seconds()
		secW += row.MeasuredPowerW * row.Interval.Seconds()
		secDur += row.Interval
		if row.T+row.Interval >= next {
			d := secDur.Seconds()
			fmt.Printf("%6.0f %9.0f %9.2f\n", next.Seconds(), secMHz/d, secW/d)
			secMHz, secW, secDur = 0, 0, 0
			next += time.Second
		}
	}
	fmt.Printf("\ncompleted in %.2fs, %.1fJ, %d p-state changes\n",
		run.Duration.Seconds(), run.EnergyJ, run.Transitions)
}
