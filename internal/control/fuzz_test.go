package control

import (
	"math"
	"testing"

	"aapm/internal/counters"
	"aapm/internal/machine"
	"aapm/internal/pstate"
)

// FuzzGovernorDecisions drives every stateless-constructible governor
// with arbitrary counter samples and checks the invariant a machine
// relies on: decisions are always valid p-state indices. The measured
// power arrives as raw float64 bits so the corpus reaches NaN, both
// infinities, negative zero and subnormals — exactly what a faulted
// sensing path can deliver.
func FuzzGovernorDecisions(f *testing.F) {
	f.Add(uint64(20_000_000), uint64(24_000_000), uint64(20_000_000), uint64(5_000_000), uint8(7), math.Float64bits(13.5))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint8(0), math.Float64bits(10.5))
	f.Add(uint64(1), uint64(1<<62), uint64(1<<62), uint64(1<<62), uint8(3), math.Float64bits(17.5))
	f.Add(uint64(1_000_000), uint64(800_000), uint64(700_000), uint64(100_000), uint8(5), math.Float64bits(math.NaN()))
	f.Add(uint64(1_000_000), uint64(800_000), uint64(700_000), uint64(100_000), uint8(5), math.Float64bits(math.Inf(1)))
	f.Add(uint64(1_000_000), uint64(800_000), uint64(700_000), uint64(100_000), uint8(5), math.Float64bits(math.Inf(-1)))
	f.Add(uint64(1_000_000), uint64(800_000), uint64(700_000), uint64(100_000), uint8(5), math.Float64bits(-42.0))
	tab := pstate.PentiumM755()
	f.Fuzz(func(t *testing.T, cycles, decoded, retired, dcu uint64, idx8 uint8, measBits uint64) {
		var s counters.Sample
		s.SetCount(counters.Cycles, cycles)
		s.SetCount(counters.InstDecoded, decoded)
		s.SetCount(counters.InstRetired, retired)
		s.SetCount(counters.DCUMissOutstanding, dcu)
		idx := int(idx8) % tab.Len()
		info := machine.TickInfo{
			Sample:         s,
			PState:         tab.At(idx),
			PStateIndex:    idx,
			Table:          tab,
			MeasuredPowerW: math.Float64frombits(measBits),
		}
		pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 13.5, FeedbackGain: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		pmDegrade, err := NewPerformanceMaximizer(PMConfig{LimitW: 13.5, FeedbackGain: 0.2, Degrade: true})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := NewPowerSave(PSConfig{Floor: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		psDegrade, err := NewPowerSave(PSConfig{Floor: 0.8, Degrade: true, StaleTicks: 2})
		if err != nil {
			t.Fatal(err)
		}
		cc, err := NewCruiseControl(CruiseControlConfig{Slowdown: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		govs := []machine.Governor{pm, pmDegrade, ps, psDegrade, cc, &OnDemand{}, NewStaticClock(idx, "")}
		for _, g := range govs {
			for k := 0; k < 3; k++ { // stateful governors see it repeatedly
				got, degr := g.Tick(&info)
				if got < 0 || got >= tab.Len() {
					t.Fatalf("%s returned out-of-range index %d", g.Name(), got)
				}
				for _, d := range degr {
					if d.Source == "" || d.Kind == "" {
						t.Fatalf("%s produced a degradation with empty source/kind: %+v", g.Name(), d)
					}
				}
			}
		}
	})
}

// FuzzParseGovernorSpec checks the spec parser never panics and every
// accepted spec yields a usable governor.
func FuzzParseGovernorSpec(f *testing.F) {
	for _, s := range []string{
		"pm:limit=14.5", "pm:limit=13.5,degrade", "ps:floor=0.8,exponent=0.59",
		"ps:floor=0.8,degrade", "static:freq=1800",
		"ondemand", "thermal:limit=75,reactive", "cruise:slowdown=0.1",
		"none", "pm:limit=", "x:y=z", "pm:limit=1e309",
	} {
		f.Add(s)
	}
	tab := pstate.PentiumM755()
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := Parse(spec, tab)
		if err != nil || g == nil {
			return
		}
		info := tick(2000, 1.2, 1.0, 0.5, 12)
		if got := decide(g, info); got < 0 || got >= tab.Len() {
			t.Fatalf("Parse(%q) governor returned index %d", spec, got)
		}
	})
}
