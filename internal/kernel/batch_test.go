package kernel

import (
	"math/rand"
	"testing"
	"time"

	"aapm/internal/control"
	pmu "aapm/internal/counters"
	"aapm/internal/faults"
	"aapm/internal/machine"
	"aapm/internal/phase"
	"aapm/internal/sensor"
	"aapm/internal/spec"
	"aapm/internal/thermal"
)

// govFactory builds a fresh governor instance; every run needs its own
// because governors are stateful.
type govFactory func(t *testing.T) machine.Governor

func pmGov(limitW, gain float64, degrade bool) govFactory {
	return func(t *testing.T) machine.Governor {
		t.Helper()
		pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: limitW, FeedbackGain: gain, Degrade: degrade})
		if err != nil {
			t.Fatal(err)
		}
		return pm
	}
}

func psGov(floor float64, degrade bool) govFactory {
	return func(t *testing.T) machine.Governor {
		t.Helper()
		ps, err := control.NewPowerSave(control.PSConfig{Floor: floor, Degrade: degrade})
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
}

func staticGov(idx int) govFactory {
	return func(t *testing.T) machine.Governor {
		return control.NewStaticClock(idx, "static-test")
	}
}

func throttleGov(floor float64) govFactory {
	return func(t *testing.T) machine.Governor {
		t.Helper()
		ts, err := control.NewThrottleSave(control.ThrottleSaveConfig{Floor: floor})
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
}

func nilGov() govFactory {
	return func(t *testing.T) machine.Governor { return nil }
}

func onDemandGov() govFactory {
	return func(t *testing.T) machine.Governor { return &control.OnDemand{} }
}

// specWorkload materializes one SPEC benchmark scaled to its
// iterations for test speed.
func specWorkload(t *testing.T, name string, iterations int) phase.Workload {
	t.Helper()
	w, err := spec.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.Iterations = iterations
	return w
}

// syntheticWorkload exercises the execute-stage corners in one run:
// idle phases longer than the interval, a phase too small to fill an
// interval, heavy jitter and multiple repeats.
func syntheticWorkload() phase.Workload {
	return phase.Workload{
		Name:       "synthetic",
		JitterPct:  0.3,
		Iterations: 3,
		Phases: []phase.Params{
			{Name: "burn", Instructions: 40e6, CPICore: 0.8, L2APKI: 2, MemAPKI: 0.5, MemBPI: 1, MLP: 2, SpecFactor: 1.1, StallFrac: 0.1},
			{Name: "nap", IdleDuration: 23 * time.Millisecond},
			{Name: "mem", Instructions: 5e6, CPICore: 1.2, L2APKI: 40, MemAPKI: 20, MemBPI: 8, MLP: 1.5, SpecFactor: 1.05, StallFrac: 0.2},
			{Name: "blip", Instructions: 1e5, CPICore: 1.0, MLP: 1, SpecFactor: 1, StallFrac: 0},
		},
	}
}

type diffCase struct {
	name     string
	workload func(t *testing.T) phase.Workload
	gov      govFactory
	cfg      machine.Config
	wantKind string
}

func diffCases() []diffCase {
	ni := sensor.NIDefault()
	tc := thermal.PentiumMThermal()
	lightFaults := faults.Preset(0.02)
	heavyFaults := faults.Preset(0.08)
	cases := []diffCase{
		{
			name:     "ammp/pm-feedback/ni",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "ammp", 1) },
			gov:      pmGov(14.5, 0.25, false),
			cfg:      machine.Config{Chain: ni, Seed: 1},
			wantKind: "pm",
		},
		{
			name:     "ammp/pinned/ideal",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "ammp", 1) },
			gov:      nilGov(),
			cfg:      machine.Config{Seed: 3},
			wantKind: "pm",
		},
		{
			name:     "gzip/static-min/ni",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "gzip", 1) },
			gov:      staticGov(0),
			cfg:      machine.Config{Chain: ni, Seed: 4},
			wantKind: "pm",
		},
		{
			name:     "mcf/psave/ni",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "mcf", 1) },
			gov:      psGov(0.8, false),
			cfg:      machine.Config{Chain: ni, Seed: 5},
			wantKind: "pm",
		},
		{
			name:     "synthetic/pm/ni",
			workload: func(t *testing.T) phase.Workload { return syntheticWorkload() },
			gov:      pmGov(12, 0.25, false),
			cfg:      machine.Config{Chain: ni, Seed: 6},
			wantKind: "pm",
		},
		{
			name:     "swim/pm-degrade/faults",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "swim", 1) },
			gov:      pmGov(13, 0.25, true),
			cfg:      machine.Config{Chain: ni, Seed: 7, Faults: &lightFaults},
			wantKind: "generic",
		},
		{
			name:     "art/psave-degrade/heavy-faults",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "art", 1) },
			gov:      psGov(0.7, true),
			cfg:      machine.Config{Chain: ni, Seed: 8, Faults: &heavyFaults},
			wantKind: "generic",
		},
		{
			name:     "crafty/ondemand/ideal",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "crafty", 1) },
			gov:      onDemandGov(),
			cfg:      machine.Config{Seed: 9},
			wantKind: "pm",
		},
		{
			name:     "gcc/throttlesave/ni",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "gcc", 1) },
			gov:      throttleGov(0.7),
			cfg:      machine.Config{Chain: ni, Seed: 10},
			wantKind: "generic",
		},
		{
			name:     "lucas/pm/thermal",
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, "lucas", 1) },
			gov:      pmGov(14, 0.25, false),
			cfg:      machine.Config{Chain: ni, Seed: 11, Thermal: &tc},
			wantKind: "generic",
		},
		{
			// Idle phases leave PS-degrade stale counters with no fault
			// plan, so a lean run logs the degradations PS returns.
			name:     "synthetic/psave-degrade/ni",
			workload: func(t *testing.T) phase.Workload { return syntheticWorkload() },
			gov:      psGov(0.8, true),
			cfg:      machine.Config{Chain: ni, Seed: 13},
			wantKind: "pm",
		},
	}

	// Randomized sweep: governors × workloads × fault plans × seeds
	// from a fixed-seed generator, so the table is reproducible while
	// covering combinations nobody hand-picked.
	rng := rand.New(rand.NewSource(0x5eed))
	names := spec.Names()
	factories := []struct {
		label string
		fresh func(r *rand.Rand) govFactory
		kind  string
	}{
		{"pm", func(r *rand.Rand) govFactory { return pmGov(10+8*r.Float64(), 0.25, false) }, "pm"},
		{"pm-degrade", func(r *rand.Rand) govFactory { return pmGov(10+8*r.Float64(), 0.25, true) }, "pm"},
		{"psave", func(r *rand.Rand) govFactory { return psGov(0.6+0.3*r.Float64(), false) }, "pm"},
		{"psave-degrade", func(r *rand.Rand) govFactory { return psGov(0.6+0.3*r.Float64(), true) }, "pm"},
		{"static", func(r *rand.Rand) govFactory { return staticGov(r.Intn(6)) }, "pm"},
		{"pinned", func(r *rand.Rand) govFactory { return nilGov() }, "pm"},
		{"ondemand", func(r *rand.Rand) govFactory { return onDemandGov() }, "pm"},
	}
	for k := 0; k < 12; k++ {
		wname := names[rng.Intn(len(names))]
		fac := factories[rng.Intn(len(factories))]
		cfg := machine.Config{Seed: rng.Int63()}
		kind := fac.kind
		if rng.Intn(2) == 0 {
			cfg.Chain = ni
		}
		if rng.Intn(3) == 0 {
			fp := faults.Preset(0.01 + 0.07*rng.Float64())
			cfg.Faults = &fp
			kind = "generic"
		}
		cases = append(cases, diffCase{
			name:     "rand/" + wname + "/" + fac.label,
			workload: func(t *testing.T) phase.Workload { return specWorkload(t, wname, 1) },
			gov:      fac.fresh(rng),
			cfg:      cfg,
			wantKind: kind,
		})
	}
	return cases
}

// multiNode describes the lanes of TestBatchMultiNodeMatchesStaged: a
// homogeneous PM batch over four workloads, each lane recorded in the
// reference fixture as its own single-lane run ("multi/<workload>").
var multiNode = []string{"swim", "mcf", "gzip", "ammp"}

func multiNodeConfig() machine.Config {
	return machine.Config{Chain: sensor.NIDefault(), Seed: 77}
}

func multiNodeGov(i int) govFactory { return pmGov(11+float64(i), 0.25, false) }

// runHooked runs one lane with an inert hook subscribed, so the batch
// runs the full event order.
func runHooked(t *testing.T, cfg machine.Config, w phase.Workload, g machine.Governor) *BatchState {
	t.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch([]BatchNode{{Machine: m, Workload: w, Governor: g}}, BatchOptions{
		RetainTraces: true,
		Hooks:        func(int) []machine.Hook { return []machine.Hook{machine.BaseHook{}} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind() != "generic" {
		t.Errorf("hooked batch should demote to generic, got %q", b.Kind())
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	return b
}

// recordAll re-records the fixture from the current engine (full event
// order) for every differential and multi-node case.
func recordAll(t *testing.T) {
	var refs []reference
	for _, tc := range diffCases() {
		b := runHooked(t, tc.cfg, tc.workload(t), tc.gov(t))
		refs = append(refs, recordRun(t, tc.name, b.Result(0)))
	}
	for i, name := range multiNode {
		b := runHooked(t, multiNodeConfig(), specWorkload(t, name, 1), multiNodeGov(i)(t))
		refs = append(refs, recordRun(t, "multi/"+name, b.Result(0)))
	}
	writeReferences(t, refs)
}

// TestBatchMatchesStaged is the tick engine's correctness anchor. The
// fixture holds every case's outputs as recorded from the staged
// engine the batch engine replaced; each case runs twice — bare
// (without the full event order when eligible) and under an inert hook
// (with it) — and both runs must reproduce the recording bit for bit,
// metrics block included.
func TestBatchMatchesStaged(t *testing.T) {
	if *update {
		recordAll(t)
		return
	}
	refs := loadReferences(t)
	for _, tc := range diffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want, ok := refs[tc.name]
			if !ok {
				t.Fatalf("no recorded reference for %s", tc.name)
			}
			w := tc.workload(t)

			m, err := machine.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBatch(
				[]BatchNode{{Machine: m, Workload: w, Governor: tc.gov(t)}},
				BatchOptions{RetainTraces: true},
			)
			if err != nil {
				t.Fatal(err)
			}
			if b.Kind() != tc.wantKind {
				t.Errorf("specialization: got %q, want %q", b.Kind(), tc.wantKind)
			}
			if err := b.Run(); err != nil {
				t.Fatal(err)
			}
			checkReference(t, "bare", want, b.Result(0))
			checkReference(t, "hooked", want, runHooked(t, tc.cfg, w, tc.gov(t)).Result(0))
		})
	}
}

// TestBatchMultiNodeMatchesStaged steps a heterogeneous batch in
// lockstep and checks every lane against its own recorded single-lane
// staged run — the interleaving must not leak state across lanes.
func TestBatchMultiNodeMatchesStaged(t *testing.T) {
	if *update {
		t.Skip("fixture owned by TestBatchMatchesStaged")
	}
	refs := loadReferences(t)
	nodes := make([]BatchNode, len(multiNode))
	for i, name := range multiNode {
		m, err := machine.New(multiNodeConfig())
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = BatchNode{Machine: m, Workload: specWorkload(t, name, 1), Governor: multiNodeGov(i)(t)}
	}
	b, err := NewBatch(nodes, BatchOptions{RetainTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind() != "pm" {
		t.Fatalf("homogeneous PM batch should stay off the full event order, got %q", b.Kind())
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	for i, name := range multiNode {
		want, ok := refs["multi/"+name]
		if !ok {
			t.Fatalf("no recorded reference for multi/%s", name)
		}
		checkReference(t, name, want, b.Result(i))
	}
}

// mixedLane is one lane of TestBatchMixedConfigMatchesSessions: a
// governor configuration (or a bare PM lane, no handle), its machine
// and workload, and the limit a mid-run SetLimit moves it to (0 for
// none).
type mixedLane struct {
	name     string
	cfg      machine.Config
	workload func(t *testing.T) phase.Workload
	pm       *control.PMConfig // PM lanes
	bare     bool              // PM lane with no handle, on an earlier lane's policy
	gov      govFactory        // non-PM lanes
	retarget float64
}

// noisyChain reads often enough at or below zero on idle intervals
// that a degrading PM notes sensor dropouts without any fault plan, so
// its degradation path runs without the full event order.
var noisyChain = sensor.Chain{NoiseStdW: 4}

func mixedLanes() []mixedLane {
	ni := sensor.NIDefault()
	plan := faults.Preset(0.04)
	tc := thermal.PentiumMThermal()
	spec := func(name string) func(t *testing.T) phase.Workload {
		return func(t *testing.T) phase.Workload { return specWorkload(t, name, 1) }
	}
	synth := func(t *testing.T) phase.Workload {
		w := syntheticWorkload()
		w.Iterations = 12
		return w
	}
	return []mixedLane{
		{name: "pm-fb", cfg: machine.Config{Chain: ni, Seed: 21}, workload: spec("swim"),
			pm: &control.PMConfig{LimitW: 12, FeedbackGain: 0.25}, retarget: 15},
		{name: "pm", cfg: machine.Config{Chain: ni, Seed: 22}, workload: spec("mcf"),
			pm: &control.PMConfig{LimitW: 14}},
		{name: "pm-fb-bare", cfg: machine.Config{Chain: ni, Seed: 23}, workload: spec("gzip"),
			pm: &control.PMConfig{LimitW: 12, FeedbackGain: 0.25}, bare: true, retarget: 10.5},
		{name: "pm-fb-degrade", cfg: machine.Config{Chain: noisyChain, Seed: 24}, workload: synth,
			pm: &control.PMConfig{LimitW: 13, FeedbackGain: 0.25, Degrade: true}},
		{name: "pm-degrade", cfg: machine.Config{Chain: noisyChain, Seed: 25}, workload: synth,
			pm: &control.PMConfig{LimitW: 11, Degrade: true}, retarget: 16},
		{name: "pm-degrade-bare", cfg: machine.Config{Chain: ni, Seed: 26}, workload: spec("ammp"),
			pm: &control.PMConfig{LimitW: 12.5, Degrade: true}, bare: true},
		{name: "psave", cfg: machine.Config{Chain: ni, Seed: 27}, workload: spec("art"), gov: psGov(0.8, false)},
		{name: "psave-degrade", cfg: machine.Config{Chain: ni, Seed: 28}, workload: synth, gov: psGov(0.7, true)},
		// Each of the last three lanes needs the full event order, so
		// the batch runs it; every other lane's one-lane session does
		// not.
		{name: "pm-degrade-faults", cfg: machine.Config{Chain: ni, Seed: 29, Faults: &plan}, workload: spec("swim"),
			pm: &control.PMConfig{LimitW: 13, FeedbackGain: 0.25, Degrade: true}, retarget: 14},
		{name: "pm-thermal", cfg: machine.Config{Chain: ni, Seed: 30, Thermal: &tc}, workload: spec("lucas"),
			pm: &control.PMConfig{LimitW: 14}},
		{name: "throttlesave", cfg: machine.Config{Chain: ni, Seed: 31}, workload: spec("gcc"), gov: throttleGov(0.7)},
	}
}

// TestBatchMixedConfigMatchesSessions steps one batch whose lanes run
// different PM configurations — with and without feedback, with and
// without Degrade, at different limits, as handles and as bare lanes,
// some retargeted mid-run — next to PowerSave lanes and a faulted, a
// thermal and a throttled lane, and checks every lane bit for bit
// against its own one-lane Session under a fresh governor. The last
// three lanes put the batch on the full event order, while the clean
// lanes' sessions run without it, so a clean lane must come out the
// same either way. Each bare lane shares the policy of the handle lane
// with its configuration, at its own limit: a policy is shared per
// configuration, never across configurations, and holds no node's
// state.
func TestBatchMixedConfigMatchesSessions(t *testing.T) {
	const retargetTick = 40
	lanes := mixedLanes()
	nodes := make([]BatchNode, len(lanes))
	for i, l := range lanes {
		m, err := machine.New(l.cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = BatchNode{Machine: m, Workload: l.workload(t)}
		switch {
		case l.bare:
			var pol *control.PMPolicy
			for j, o := range lanes[:i] {
				if o.pm != nil && !o.bare && o.pm.FeedbackGain == l.pm.FeedbackGain && o.pm.Degrade == l.pm.Degrade {
					pol = nodes[j].Governor.(*control.PerformanceMaximizer).Policy().(*control.PMPolicy)
				}
			}
			if pol == nil {
				t.Fatalf("%s: no handle lane of the same configuration", l.name)
			}
			nodes[i].Policy, nodes[i].Lane = pol, pol.Lane(l.pm.LimitW)
		case l.pm != nil:
			nodes[i].Governor = pmGov(l.pm.LimitW, l.pm.FeedbackGain, l.pm.Degrade)(t)
		default:
			nodes[i].Governor = l.gov(t)
		}
	}
	// Lanes of different configurations never share a policy.
	policy := func(i int) machine.LanePolicy {
		if lanes[i].bare {
			return nodes[i].Policy
		}
		return nodes[i].Governor.(*control.PerformanceMaximizer).Policy()
	}
	for i := range lanes {
		for j := i + 1; j < len(lanes); j++ {
			ci, cj := lanes[i].pm, lanes[j].pm
			if ci == nil || cj == nil {
				continue
			}
			a, c := *ci, *cj
			a.LimitW, c.LimitW = 0, 0
			if a != c && policy(i) == policy(j) {
				t.Errorf("lanes %s and %s share a policy across configurations", lanes[i].name, lanes[j].name)
			}
		}
	}
	b, err := NewBatch(nodes, BatchOptions{RetainTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind() != "generic" {
		t.Fatalf("a batch with faulted, thermal and throttled lanes should run the full event order, got %q", b.Kind())
	}
	for tick := 0; b.StepAll(); tick++ {
		if tick != retargetTick {
			continue
		}
		for i, l := range lanes {
			switch {
			case l.retarget == 0:
			case l.bare:
				b.SetLimit(i, l.retarget)
			default:
				nodes[i].Governor.(*control.PerformanceMaximizer).SetLimit(l.retarget)
			}
		}
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}

	degraded := 0
	for i, l := range lanes {
		m, err := machine.New(l.cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := l.gov
		if l.pm != nil {
			g = pmGov(l.pm.LimitW, l.pm.FeedbackGain, l.pm.Degrade)
		}
		gov := g(t)
		s, err := m.NewSession(l.workload(t), gov)
		if err != nil {
			t.Fatal(err)
		}
		for tick := 0; !s.Done(); tick++ {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
			if tick == retargetTick && l.retarget != 0 {
				gov.(*control.PerformanceMaximizer).SetLimit(l.retarget)
			}
		}
		want := s.Result()
		degraded += len(want.Degradations)
		checkReference(t, l.name, recordRun(t, l.name, want), b.Result(i))
	}
	if degraded == 0 {
		t.Error("no lane noted a degradation; the degrade paths went unexercised")
	}
}

// TestBatchKindMultiplexed pins the event order a batch over a
// Multiplexed governor selects: the wrapper throttles only when its
// inner governor does, so multiplexed PowerSave needs no full event
// order and multiplexed ThrottleSave does. Each run must also match
// the same run under an inert hook bit for bit.
func TestBatchKindMultiplexed(t *testing.T) {
	mux := func(inner govFactory) govFactory {
		return func(t *testing.T) machine.Governor {
			t.Helper()
			g, err := control.NewMultiplexed(inner(t), 1, []pmu.Event{pmu.InstRetired, pmu.DCUMissOutstanding})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	for _, tc := range []struct {
		name     string
		gov      govFactory
		wantKind string
	}{
		{"mux/psave", mux(psGov(0.8, false)), "pm"},
		{"mux/throttlesave", mux(throttleGov(0.7)), "generic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := machine.Config{Chain: sensor.NIDefault(), Seed: 41}
			w := specWorkload(t, "ammp", 1)
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBatch([]BatchNode{{Machine: m, Workload: w, Governor: tc.gov(t)}}, BatchOptions{RetainTraces: true})
			if err != nil {
				t.Fatal(err)
			}
			if b.Kind() != tc.wantKind {
				t.Errorf("got kind %q, want %q", b.Kind(), tc.wantKind)
			}
			if err := b.Run(); err != nil {
				t.Fatal(err)
			}
			want := recordRun(t, tc.name, b.Result(0))
			checkReference(t, "hooked", want, runHooked(t, cfg, w, tc.gov(t)).Result(0))
		})
	}
}

// TestBatchTickAllocs is the allocation-budget gate: on the pm
// (telemetry-off, faults-off) body a tick allocates nothing, for lane,
// object and governor-less nodes alike. Trace retention is off, as in the cluster's default
// steady-state configuration.
func TestBatchTickAllocs(t *testing.T) {
	build := func(t *testing.T, gf govFactory, wantKind string) *BatchState {
		t.Helper()
		nodes := make([]BatchNode, 4)
		for i := range nodes {
			m, err := machine.New(machine.Config{Chain: sensor.NIDefault(), Seed: int64(31 + i)})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = BatchNode{Machine: m, Workload: specWorkload(t, "ammp", 4), Governor: gf(t)}
		}
		b, err := NewBatch(nodes, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if b.Kind() != wantKind {
			t.Fatalf("got kind %q, want %q", b.Kind(), wantKind)
		}
		// Warm the run past its first transitions before measuring.
		for k := 0; k < 50; k++ {
			b.StepAll()
		}
		return b
	}
	kinds := []struct {
		name, kind string
		gov        govFactory
	}{
		{"pm", "pm", pmGov(13, 0.25, false)},
		{"psave", "pm", psGov(0.8, false)},
		{"pinned", "pm", nilGov()},
		{"ondemand", "pm", onDemandGov()},
	}
	for _, k := range kinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			b := build(t, k.gov, k.kind)
			allocs := testing.AllocsPerRun(200, func() {
				b.StepAll()
			})
			if allocs != 0 {
				t.Fatalf("%s (kind %s) allocates %.1f times per lockstep round, want 0", k.name, k.kind, allocs)
			}
			if b.Done() {
				t.Fatal("workload exhausted during the measurement window; grow it")
			}
			if err := b.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
