package kernel

import (
	"fmt"
	"math"
	"testing"
	"time"

	"aapm/internal/control"
	pmu "aapm/internal/counters"
	"aapm/internal/faults"
	"aapm/internal/machine"
	"aapm/internal/phase"
	"aapm/internal/sensor"
	"aapm/internal/thermal"
	"aapm/internal/trace"
)

// FuzzBatchStep is the fuzzing arm of the bare-vs-hooked
// differential: arbitrary float bit patterns (NaN, infinities,
// denormals, huge magnitudes) become phase parameters, jitter
// amplitudes and governor limits, and whatever the bare run does with
// them bare — reject the spec, error mid-run, or complete — the same
// spec with a no-op hook attached (the full event order) must do
// byte-for-byte the same. Counter and power corruption
// is covered by routing part of the input space through fault plans,
// whose injector writes NaN/Inf and wrapped counter values into the
// governor-visible stream, and with bit 4 of the fault selector set
// the nodes measure through the ideal chain, whose repeated readings
// let PM lanes settle. With bit 5 set too the bare run keeps run
// totals only, so its settled lanes coast, and the hooked run's rows
// are dropped before the comparison. It mirrors FuzzGovernorDecisions
// one layer up: there a single Tick is probed, here the whole tick
// loop.
//
// A governor selector with its top bit set steps a mixed batch instead
// of one lane: PM lanes with and without feedback and Degrade at and
// around the fuzzed limit (one of them a bare policy lane with no
// handle), PowerSave lanes with and without Degrade, a static lane, a
// lane with no governor, an OnDemand lane and a Multiplexed PM over a
// degrading feedback PM, interleaved in one batch; every lane must agree
// between the bare and the hooked batch. With the next bit set too,
// the mixed batch gains a faulted PM lane, a thermal PM lane and a
// ThrottleSave lane, which put it on the full event order; then every
// lane of the hooked batch must agree with the same lane stepped alone
// in a bare one-lane batch, where a clean lane runs without the full
// event order.
func FuzzBatchStep(f *testing.F) {
	bits := math.Float64bits
	// Plausible spec, idle-only, NaN params, Inf intensity, huge
	// magnitudes, heavy faults, each governor selector.
	f.Add(bits(40e6), bits(0.9), bits(3.0), bits(1.5), bits(0.1), bits(13.5), uint16(0), uint8(0), uint8(0), int64(1))
	f.Add(bits(0), bits(0), bits(0), bits(0), bits(0), bits(14.5), uint16(25), uint8(0), uint8(1), int64(2))
	f.Add(bits(math.NaN()), bits(math.NaN()), bits(math.NaN()), bits(math.NaN()), bits(math.NaN()), bits(13.0), uint16(3), uint8(1), uint8(2), int64(3))
	f.Add(bits(1e6), bits(1.2), bits(math.Inf(1)), bits(math.Inf(1)), bits(0.3), bits(0.8), uint16(0), uint8(2), uint8(3), int64(4))
	f.Add(bits(1e300), bits(1e-300), bits(50), bits(40), bits(0.5), bits(13.5), uint16(1), uint8(3), uint8(4), int64(5))
	f.Add(bits(2e6), bits(1.0), bits(20), bits(5), bits(0.2), bits(12.0), uint16(7), uint8(7), uint8(0), int64(6))
	f.Add(bits(30e6), bits(1.1), bits(8), bits(2), bits(0.2), bits(13.0), uint16(30), uint8(0), uint8(0x80), int64(7))
	f.Add(bits(30e6), bits(1.1), bits(8), bits(2), bits(0.2), bits(13.0), uint16(30), uint8(0), uint8(0xc0), int64(8))
	// Zero jitter: the nodes read their mid-phase intervals from the
	// steady-interval table, a single PM lane and both mixed batches.
	f.Add(bits(3e8), bits(0.9), bits(3.0), bits(1.5), bits(0), bits(13.5), uint16(20), uint8(0), uint8(0), int64(9))
	f.Add(bits(3e8), bits(1.1), bits(8), bits(2), bits(0), bits(13.0), uint16(30), uint8(0), uint8(0x80), int64(10))
	f.Add(bits(3e8), bits(1.1), bits(8), bits(2), bits(0), bits(13.0), uint16(30), uint8(0), uint8(0xc0), int64(11))
	// Zero jitter behind the ideal chain: PM lanes settle and skip
	// their policy on steady ticks, alone and in the full mix.
	f.Add(bits(3e9), bits(0.9), bits(3.0), bits(1.5), bits(0), bits(13.5), uint16(20), uint8(0x10), uint8(0), int64(12))
	f.Add(bits(3e9), bits(1.1), bits(8), bits(2), bits(0), bits(13.0), uint16(30), uint8(0x10), uint8(0xc0), int64(13))
	// The same with a totals-only bare run: its settled lanes coast,
	// alone, in the lean mix and stepped solo beside the full mix.
	f.Add(bits(3e9), bits(0.9), bits(3.0), bits(1.5), bits(0), bits(13.5), uint16(20), uint8(0x30), uint8(0), int64(14))
	f.Add(bits(3e9), bits(1.1), bits(8), bits(2), bits(0), bits(13.0), uint16(30), uint8(0x30), uint8(0x80), int64(15))
	f.Add(bits(3e9), bits(1.1), bits(8), bits(2), bits(0), bits(13.0), uint16(30), uint8(0x30), uint8(0xc0), int64(16))

	f.Fuzz(func(t *testing.T, instrBits, cpiBits, l2Bits, memBits, jitBits, limitBits uint64,
		idleMs uint16, faultSel, govSel uint8, seed int64) {
		w := phase.Workload{
			Name:       "fuzz",
			JitterPct:  math.Float64frombits(jitBits),
			Iterations: 2,
			Phases: []phase.Params{
				{
					Name:         "work",
					Instructions: math.Float64frombits(instrBits),
					CPICore:      math.Float64frombits(cpiBits),
					L2APKI:       math.Float64frombits(l2Bits),
					MemAPKI:      math.Float64frombits(memBits),
					MemBPI:       math.Float64frombits(memBits) / 4,
					MLP:          2,
					SpecFactor:   1.1,
					StallFrac:    0.1,
				},
				{Name: "nap", IdleDuration: time.Duration(idleMs%64) * time.Millisecond},
			},
		}
		if w.Phases[1].IdleDuration == 0 {
			w.Phases[1].IdleDuration = time.Millisecond
		}
		// MaxTicks bounds both runs on huge/non-finite specs; the cap
		// itself is part of the differential (both bodies must trip it
		// identically).
		cfg := machine.Config{Chain: sensor.NIDefault(), Seed: seed, MaxTicks: 500}
		if faultSel&0x10 != 0 {
			cfg.Chain = sensor.Chain{}
		}
		totals := faultSel&0x30 == 0x30
		if faultSel%4 != 0 {
			plan := faults.Preset(float64(faultSel%4) * 0.04)
			cfg.Faults = &plan
		}
		limit := math.Float64frombits(limitBits)
		mixed := govSel&0x80 != 0
		fullMix := mixed && govSel&0x40 != 0
		lanes := 1
		switch {
		case fullMix:
			lanes = 13
		case mixed:
			lanes = 10
		}
		pm := func(limitW, gain float64, degrade bool) (machine.Governor, error) {
			return control.NewPerformanceMaximizer(control.PMConfig{LimitW: limitW, FeedbackGain: gain, Degrade: degrade})
		}
		// mkNode fills lane k's governor (or bare PM policy).
		mkNode := func(k int, node *BatchNode) (err error) {
			if !mixed {
				switch govSel % 5 {
				case 0:
					node.Governor, err = pm(limit, 0.2, false)
				case 1:
					node.Governor, err = control.NewPowerSave(control.PSConfig{Floor: 0.8})
				case 2:
				case 3:
					node.Governor = control.NewStaticClock(3, "static-fuzz")
				default:
					node.Governor = &control.OnDemand{}
				}
				return err
			}
			switch k {
			case 0:
				node.Governor, err = pm(limit, 0.2, false)
			case 1:
				node.Governor, err = pm(limit+1, 0, true)
			case 2:
				node.Governor, err = pm(limit/2, 0.25, true)
			case 3:
				var pol *control.PMPolicy
				pol, err = control.NewPMPolicy(control.PMConfig{FeedbackGain: 0.2})
				if err == nil {
					node.Policy, node.Lane = pol, pol.Lane(limit)
				}
			case 4:
				node.Governor, err = control.NewPowerSave(control.PSConfig{Floor: 0.8})
			case 5:
				node.Governor, err = control.NewPowerSave(control.PSConfig{Floor: 0.7, Degrade: true})
			case 6:
				node.Governor = control.NewStaticClock(3, "static-fuzz")
			case 7: // no governor
			case 8:
				node.Governor = &control.OnDemand{}
			case 9:
				var inner *control.PerformanceMaximizer
				inner, err = control.NewPerformanceMaximizer(control.PMConfig{LimitW: limit, FeedbackGain: 0.25, Degrade: true})
				if err == nil {
					node.Governor, err = control.NewMultiplexed(inner, 2, []pmu.Event{pmu.InstDecoded, pmu.DCUMissOutstanding})
				}
			case 10: // faulted (laneConfig)
				node.Governor, err = pm(limit, 0.25, true)
			case 11: // thermal (laneConfig)
				node.Governor, err = pm(limit, 0, false)
			default:
				node.Governor, err = control.NewThrottleSave(control.ThrottleSaveConfig{Floor: 0.7})
			}
			return err
		}
		// laneConfig is lane k's platform: its own seed, and a fault
		// plan or a thermal model on the full mix's lanes 10 and 11.
		heavy := faults.Preset(0.08)
		tc := thermal.PentiumMThermal()
		laneConfig := func(k int) machine.Config {
			c := cfg
			c.Seed += int64(k)
			if fullMix {
				switch k {
				case 10:
					c.Faults = &heavy
				case 11:
					c.Thermal = &tc
				}
			}
			return c
		}
		for k := 0; k < lanes; k++ {
			if err := mkNode(k, &BatchNode{}); err != nil {
				// The governor spec itself is invalid (e.g. a
				// non-positive limit); neither run would get past
				// construction.
				return
			}
		}

		// run steps every lane, in one batch or, when solo, each in its
		// own one-lane batch.
		run := func(hooked, solo bool) ([]*trace.Run, []error, error) {
			nodes := make([]BatchNode, lanes)
			for k := range nodes {
				m, err := machine.New(laneConfig(k))
				if err != nil {
					return nil, nil, err
				}
				nodes[k] = BatchNode{Machine: m, Workload: w}
				if err := mkNode(k, &nodes[k]); err != nil {
					return nil, nil, err
				}
			}
			opts := BatchOptions{RetainTraces: hooked || !totals}
			if hooked {
				opts.Hooks = func(int) []machine.Hook { return []machine.Hook{machine.BaseHook{}} }
			}
			groups := [][]BatchNode{nodes}
			if solo {
				groups = groups[:0]
				for k := range nodes {
					groups = append(groups, nodes[k:k+1])
				}
			}
			var runs []*trace.Run
			var errs []error
			for g, group := range groups {
				b, err := NewBatch(group, opts)
				if err != nil {
					return nil, nil, err
				}
				if hooked && b.Kind() != "generic" {
					t.Fatalf("hooked batch has kind %q, want generic", b.Kind())
				}
				if mixed && !fullMix && !hooked && cfg.Faults == nil && b.Kind() != "pm" {
					t.Fatalf("fault-free mixed batch has kind %q, want pm", b.Kind())
				}
				if solo && g < 10 && cfg.Faults == nil && b.Kind() != "pm" {
					t.Fatalf("clean lane %d stepped alone has kind %q, want pm", g, b.Kind())
				}
				for b.StepAll() {
				}
				for k := range group {
					err := b.NodeErr(k)
					errs = append(errs, err)
					if err == nil {
						runs = append(runs, b.Result(k))
					} else {
						runs = append(runs, nil)
					}
				}
			}
			return runs, errs, nil
		}

		want, wantErrs, errS := run(false, fullMix)
		got, gotErrs, errG := run(true, false)
		if (errS == nil) != (errG == nil) {
			t.Fatalf("runs disagree on construction: bare err=%v, hooked err=%v", errS, errG)
		}
		if errS != nil {
			if errS.Error() != errG.Error() {
				t.Fatalf("runs fail differently: bare %q, hooked %q", errS, errG)
			}
			return
		}
		for k := range want {
			errS, errG := wantErrs[k], gotErrs[k]
			if (errS == nil) != (errG == nil) {
				t.Fatalf("lane %d: runs disagree on failure: bare err=%v, hooked err=%v", k, errS, errG)
			}
			if errS != nil {
				if errS.Error() != errG.Error() {
					t.Fatalf("lane %d: runs fail differently: bare %q, hooked %q", k, errS, errG)
				}
				continue
			}
			g := got[k]
			if totals {
				r := *g
				r.Rows = nil
				g = &r
			}
			checkReference(t, fmt.Sprintf("fuzz lane %d", k), recordRun(t, "fuzz", want[k]), g)
		}
	})
}
