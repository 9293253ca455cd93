package cluster

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"aapm/internal/control"
	"aapm/internal/faults"
	"aapm/internal/machine"
	"aapm/internal/power"
	"aapm/internal/sensor"
	"aapm/internal/telemetry"
	"aapm/internal/trace"
)

// diffLines fails the test at the first diverging line of two trace
// serializations.
func diffLines(t *testing.T, what string, a, b []byte) {
	t.Helper()
	if bytes.Equal(a, b) {
		return
	}
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			t.Fatalf("%s: traces diverge at line %d:\n  a %s\n  b %s", what, i, al[i], bl[i])
		}
	}
	t.Fatalf("%s: traces differ in length: %d vs %d lines", what, len(al), len(bl))
}

// epochScript is a deterministic control plane for the determinism
// suite: it records every epoch observation (copied, since the
// coordinator reuses the buffers) and at epoch 1 offlines one node,
// pins another and reweights and caps two groups, so the offline gate
// in the shards and the directive folding are exercised.
type epochScript struct {
	seen []FleetEpochObs
}

func (s *epochScript) Epoch(o FleetEpochObs) FleetDirectives {
	o.Groups = append([]GroupObs(nil), o.Groups...)
	o.NodeActive = append([]bool(nil), o.NodeActive...)
	s.seen = append(s.seen, o)
	if o.Epoch != 1 {
		return FleetDirectives{}
	}
	nodes := make([]NodeOverride, len(o.NodeActive))
	nodes[25] = NodeOffline // the 2-worker shard boundary
	nodes[33] = NodePinned  // next to a 3-worker one
	groups := make([]GroupDirective, len(o.Groups))
	groups[0].Weight = 2
	groups[1].CapW = 40
	return FleetDirectives{Groups: [][]GroupDirective{nil, groups}, Nodes: nodes}
}

// deterministicExposition is the registry's Prometheus text without
// the wall-clock families (per-level allocation wall and per-worker
// shard wall), which measure the host rather than the run.
func deterministicExposition(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(line, "_wall_seconds") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestFleetMultiLevelDeterministic pins the multi-level contract: a
// hierarchy of any depth produces byte-identical traces and bit-equal
// aggregates for every worker count, including counts whose
// contiguous shard boundaries cut a fanout-4 group. The observed
// variant attaches a telemetry registry and a control plane and also
// requires equal control-plane observations and equal /metrics text.
func TestFleetMultiLevelDeterministic(t *testing.T) {
	const n = 50
	for _, w := range []int{2, 3} {
		cut := false
		for _, b := range shardBounds(n, w)[1:w] {
			cut = cut || b%4 != 0
		}
		if !cut {
			t.Fatalf("%d-worker shard bounds %v cut no fanout-4 group", w, shardBounds(n, w))
		}
	}
	type outcome struct {
		res     *FleetResult
		csv     []byte
		epochs  []FleetEpochObs
		metrics string
	}
	for _, levels := range []int{2, 3} {
		for _, observed := range []bool{false, true} {
			levels, observed := levels, observed
			name := fmt.Sprintf("levels=%d", levels)
			if observed {
				name += "-observed"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				run := func(workers int) outcome {
					cfg := FleetConfig{
						BudgetW:      16 * n,
						Nodes:        SyntheticFleet(n, 60),
						Seed:         7,
						Chain:        sensor.NIDefault(),
						Workers:      workers,
						Levels:       levels,
						Fanout:       4,
						RetainTraces: true,
					}
					var ctl *epochScript
					var reg *telemetry.Registry
					if observed {
						ctl, reg = &epochScript{}, telemetry.NewRegistry()
						cfg.Control, cfg.Telemetry, cfg.EpochTicks = ctl, reg, 10
					}
					res, err := RunFleet(cfg)
					if err != nil {
						t.Fatal(err)
					}
					o := outcome{res: res, csv: tracesCSV(t, res)}
					if observed {
						o.epochs, o.metrics = ctl.seen, deterministicExposition(t, reg)
					}
					return o
				}
				ref := run(1)
				if ref.res.Levels != levels || ref.res.Epochs == 0 || ref.res.Intervals == 0 {
					t.Fatalf("degenerate reference run: %+v", ref.res)
				}
				wantGroups := []int{13, 4}[:levels-1]
				for i, g := range wantGroups {
					if ref.res.GroupsPerLevel[i] != g {
						t.Errorf("GroupsPerLevel[%d] = %d, want %d", i, ref.res.GroupsPerLevel[i], g)
					}
				}
				if observed {
					if len(ref.epochs) < 3 || ref.epochs[len(ref.epochs)-1].NodeActive[25] {
						t.Fatalf("control plane saw %d epochs; node 25 never went offline", len(ref.epochs))
					}
				}
				for _, workers := range []int{2, 3, 5, 8} {
					got := run(workers)
					diffLines(t, fmt.Sprintf("workers 1 vs %d", workers), ref.csv, got.csv)
					a, b := ref.res, got.res
					if a.MachineSeconds != b.MachineSeconds || a.Makespan != b.Makespan ||
						math.Float64bits(a.PeakTotalW) != math.Float64bits(b.PeakTotalW) ||
						math.Float64bits(a.OverFrac) != math.Float64bits(b.OverFrac) ||
						math.Float64bits(a.ContendedOverFrac) != math.Float64bits(b.ContendedOverFrac) ||
						a.NodeTicks != b.NodeTicks || a.Epochs != b.Epochs || a.Intervals != b.Intervals {
						t.Errorf("workers=%d aggregates diverge from serial", workers)
					}
					if !reflect.DeepEqual(ref.epochs, got.epochs) {
						t.Errorf("workers=%d control-plane observations diverge from serial", workers)
					}
					if ref.metrics != got.metrics {
						t.Errorf("workers=%d /metrics exposition diverges from serial:\n%s\nvs\n%s", workers, got.metrics, ref.metrics)
					}
				}
			})
		}
	}
}

// TestFleetValidation pins the config error paths.
func TestFleetValidation(t *testing.T) {
	if _, err := RunFleet(FleetConfig{BudgetW: 100}); err == nil {
		t.Error("no nodes accepted")
	}
	nodes := SyntheticFleet(4, 5)
	if _, err := RunFleet(FleetConfig{Nodes: nodes}); err == nil {
		t.Error("non-positive budget accepted")
	}
	if _, err := RunFleet(FleetConfig{BudgetW: 10, Nodes: nodes}); err == nil {
		t.Error("budget below the floor guarantee accepted")
	}
	// NaN and +Inf slip past a plain non-positive check (NaN <= 0 is
	// false) and would run with a meaningless cap.
	for _, b := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := RunFleet(FleetConfig{BudgetW: b, Nodes: nodes, EpochTicks: 10}); err == nil {
			t.Errorf("budget %v accepted", b)
		}
	}
	for _, f := range []float64{-5, math.NaN(), math.Inf(1)} {
		if _, err := RunFleet(FleetConfig{BudgetW: 100, FloorW: f, Nodes: nodes}); err == nil {
			t.Errorf("floor %v accepted", f)
		}
	}
	if _, err := RunFleet(FleetConfig{BudgetW: 100, Nodes: nodes, Levels: 2, Fanout: 1}); err == nil {
		t.Error("fanout 1 with 2 levels accepted")
	}
	if _, err := RunFleet(FleetConfig{BudgetW: 100, Nodes: nodes, Levels: 17}); err == nil {
		t.Error("17 levels accepted")
	}
}

// runBits renders every field of r but its phase-label table (a
// pointer) with %v, which prints each float in its shortest exact
// form: two runs render alike only if they agree bit for bit.
func runBits(r *trace.Run) string {
	c := *r
	c.Phases = nil
	return fmt.Sprintf("%+v", c)
}

// TestFleetSharedPlatformMatchesMachines pins the fleet's node
// construction: nodes of one shared Machine told apart by their seed
// offsets, and fault-plan nodes on machines of their own, run exactly
// as the same nodes built each on a Machine of its own at seed
// Seed + i*7919. Chain noise and workload jitter make every node draw
// from its stream, and the fault plans turn on the full event order
// and the sparse injector lanes. The fleet is Static, so no
// reallocation couples the nodes and each reference node runs alone.
func TestFleetSharedPlatformMatchesMachines(t *testing.T) {
	const n, seed = 24, 11
	nodes := SyntheticFleet(n, 40)
	for i := range nodes {
		nodes[i].Workload.JitterPct = float64(1+i%3) * 0.04
	}
	plan := faults.Preset(0.05)
	planOf := func(i int) *faults.Plan {
		if i%5 == 2 {
			return &plan
		}
		return nil
	}
	chain := sensor.NIDefault()
	cfg := FleetConfig{
		BudgetW: 14 * n, Nodes: nodes, Seed: seed, Chain: chain,
		Static: true, Faults: planOf, Levels: 2, Fanout: 4, Workers: 2,
		RetainTraces: true,
	}
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := control.NewPMPolicy(control.PMConfig{FeedbackGain: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	share := cfg.BudgetW / n
	faulted := 0
	for i, node := range nodes {
		m, err := machine.New(machine.Config{
			Truth: power.PentiumM755Truth(), Chain: chain,
			Seed: seed + int64(i)*7919, Faults: planOf(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := machine.NewBatch([]machine.BatchNode{{
			Machine: m, Workload: node.Workload, Policy: pol, Lane: pol.Lane(share),
		}}, machine.BatchOptions{RetainTraces: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		want, got := b.Result(0), res.Runs[i]
		if len(want.Rows) == 0 {
			t.Fatalf("node %d: reference run kept no rows", i)
		}
		if planOf(i) != nil && len(want.Degradations) > 0 {
			faulted++
		}
		if g, w := runBits(got), runBits(want); g != w {
			t.Errorf("node %d: fleet run differs from its own machine's:\n  fleet %.300s\n  own   %.300s", i, g, w)
		}
	}
	if faulted == 0 {
		t.Error("no fault-plan node logged a degradation")
	}
}

// TestFleetFaultedMachineError checks that a node whose fault plan
// machine.New rejects fails the fleet with machine.New's own error, as
// the engine reads the nodes one at a time.
func TestFleetFaultedMachineError(t *testing.T) {
	const n = 8
	bad := faults.Plan{Sensor: faults.SensorPlan{DropoutProb: 2}}
	_, want := machine.New(machine.Config{Truth: power.PentiumM755Truth(), Seed: 1, Faults: &bad})
	if want == nil {
		t.Fatal("machine.New accepted a dropout probability of 2")
	}
	_, err := RunFleet(FleetConfig{
		BudgetW: 30 * n, Nodes: SyntheticFleet(n, 10), Seed: 1,
		Faults: func(i int) *faults.Plan {
			if i == 5 {
				return &bad
			}
			return nil
		},
	})
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("RunFleet error %v, want %v", err, want)
	}
}

// fleetBytesPerNodeBudget caps the per-node allocation cost of a
// fleet run (cumulative bytes allocated during RunFleet divided by
// the node count). The footprint is the BatchState's lanes (the PM
// state and two 4-byte indices into the shared wiring included), one
// run header per node, and the coordinator's per-node records; the
// budget sits about 6% above the measured 463 B, so a regression that
// brings back a per-node machine (~100 B), a per-node BatchNode
// (136 B), per-node copies of the shared wiring (~280 B), a per-node
// TickInfo (128 B) or counter sample (56 B) — let alone a per-node
// governor, power model or RNG — fails loudly.
const fleetBytesPerNodeBudget = 490

// TestFleetMemoryBudget is the scale gate: one process steps 100,000
// nodes through a multi-epoch hierarchical run, within the per-node
// allocation budget.
func TestFleetMemoryBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is race-instrumented")
	}
	if testing.Short() {
		t.Skip("fleet-scale run")
	}
	const n, ticks = 100_000, 120
	nodes := SyntheticFleet(n, ticks)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res, err := RunFleet(FleetConfig{
		BudgetW: 30 * n,
		Nodes:   nodes,
		Seed:    1,
		Levels:  3,
		Fanout:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	perNode := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	t.Logf("fleet %d nodes, %d levels: %d node-ticks, %d epochs, %.0f B/node allocated",
		res.Nodes, res.Levels, res.NodeTicks, res.Epochs, perNode)
	if res.NodeTicks < int64(n)*ticks {
		t.Errorf("NodeTicks = %d, want >= %d", res.NodeTicks, int64(n)*ticks)
	}
	if res.Epochs < 2 {
		t.Errorf("Epochs = %d, want >= 2", res.Epochs)
	}
	if res.GroupsPerLevel[0] != (n+63)/64 {
		t.Errorf("GroupsPerLevel = %v", res.GroupsPerLevel)
	}
	if perNode > fleetBytesPerNodeBudget {
		t.Errorf("allocated %.0f B/node, budget %d", perNode, fleetBytesPerNodeBudget)
	}
}

// fleetTickAllocSlack bounds the difference in heap allocations
// between a short and a long fleet run. Construction is identical, so
// one allocation per tick would add 180 objects over the 180 extra
// ticks; what remains is runtime noise from the pool's goroutines
// (goroutine and sudog records come from the heap when the runtime's
// free lists are empty), which the minimum over a few runs mostly
// removes.
const fleetTickAllocSlack = 64

// TestFleetTickAllocs is the fleet tick's allocation gate: a 3-level
// run allocates the same number of heap objects at 60 and at 240
// ticks, serially and across two workers, so the stepping, shard fold
// and post-barrier coordinator work allocate nothing per tick.
// EpochTicks lies past both runs, so no reallocation epoch fires.
func TestFleetTickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is race-instrumented")
	}
	const n, trials = 3_000, 3
	mallocs := func(ticks, workers int) uint64 {
		best := uint64(math.MaxUint64)
		for trial := 0; trial < trials; trial++ {
			nodes := SyntheticFleet(n, ticks)
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			res, err := RunFleet(FleetConfig{
				BudgetW:    30 * n,
				Nodes:      nodes,
				Seed:       1,
				Levels:     3,
				Fanout:     64,
				Workers:    workers,
				EpochTicks: 1_000,
			})
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Epochs != 0 || res.Intervals < ticks {
				t.Fatalf("%d-tick run: %d epochs, %d intervals", ticks, res.Epochs, res.Intervals)
			}
			best = min(best, m1.Mallocs-m0.Mallocs)
		}
		return best
	}
	for _, workers := range []int{1, 2} {
		short, long := mallocs(60, workers), mallocs(240, workers)
		t.Logf("workers=%d: %d mallocs at 60 ticks, %d at 240", workers, short, long)
		if long > short+fleetTickAllocSlack || short > long+fleetTickAllocSlack {
			t.Errorf("workers=%d: %d mallocs at 60 ticks vs %d at 240, slack %d",
				workers, short, long, fleetTickAllocSlack)
		}
	}
}

// TestFleetTelemetry checks the per-level series surface on a small
// hierarchy: static gauges, per-group budgets, the root over-budget
// counter and the per-level epoch wall all registered and populated.
func TestFleetTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	res, err := RunFleet(FleetConfig{
		BudgetW:    16 * 12,
		Nodes:      SyntheticFleet(12, 30),
		Seed:       3,
		Chain:      sensor.NIDefault(),
		EpochTicks: 10,
		Levels:     2,
		Fanout:     4,
		Telemetry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Fatal("no epochs completed")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"aapm_fleet_nodes 12",
		"aapm_fleet_levels 2",
		"aapm_fleet_budget_watts 192",
		`aapm_fleet_group_budget_watts{level="1",group="0"}`,
		`aapm_fleet_group_budget_watts{level="1",group="2"}`,
		`aapm_fleet_over_budget_intervals_total{level="root",group=""}`,
		`aapm_fleet_epoch_wall_seconds_count{level="0"}`,
		`aapm_fleet_epoch_wall_seconds_count{level="1"}`,
		"aapm_fleet_reallocation_epochs_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("telemetry output missing %q", want)
		}
	}
}

// budgetRecorder observes per-epoch level-1 budgets through the
// control-plane seam; with minW0 set it also directs group 0's
// guaranteed minimum to minW0 at every epoch.
type budgetRecorder struct {
	minW0   float64
	budgets [][]float64
}

func (r *budgetRecorder) Epoch(o FleetEpochObs) FleetDirectives {
	row := make([]float64, len(o.Groups))
	for g, gr := range o.Groups {
		row[g] = gr.BudgetW
	}
	r.budgets = append(r.budgets, row)
	if r.minW0 == 0 {
		return FleetDirectives{}
	}
	dirs := make([]GroupDirective, len(o.Groups))
	dirs[0].MinW = r.minW0
	return FleetDirectives{Groups: [][]GroupDirective{nil, dirs}}
}

// TestFleetHeterogeneousFloors pins the per-group minima path: a
// control-plane GroupDirective.MinW flows through
// alloc.Aggregate.MinW into the water-fill, the floored group's grant
// never dips below its minimum under budget scarcity, and the
// heterogeneous-floor allocation stays byte-deterministic at any
// worker count.
func TestFleetHeterogeneousFloors(t *testing.T) {
	run := func(workers int, minW0 float64) (*FleetResult, *budgetRecorder, []byte) {
		rec := &budgetRecorder{minW0: minW0}
		res, err := RunFleet(FleetConfig{
			BudgetW:      180,
			Nodes:        SyntheticFleet(16, 120),
			Seed:         5,
			Chain:        sensor.NIDefault(),
			Workers:      workers,
			Levels:       2,
			Fanout:       4,
			EpochTicks:   10,
			Control:      rec,
			RetainTraces: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, rec, tracesCSV(t, res)
	}
	ref, rec, refCSV := run(1, 80)
	if ref.Epochs < 3 {
		t.Fatalf("degenerate run: %d epochs", ref.Epochs)
	}
	// The first control call still reports the bootstrap even split;
	// every reallocated epoch after it must honor the floor.
	for e, row := range rec.budgets[1:] {
		if row[0] < 80-1e-9 {
			t.Errorf("epoch %d: floored group granted %.2f W, floor 80", e+1, row[0])
		}
	}
	// The floor binds: without it, scarcity leaves group 0 below 80 W.
	_, base, _ := run(1, 0)
	bound := false
	for _, row := range base.budgets[1:] {
		if row[0] < 80-1e-9 {
			bound = true
		}
	}
	if !bound {
		t.Error("floor never bound: group 0 held >= 80 W even without it")
	}
	for _, workers := range []int{5, 8} {
		res, rec2, csv := run(workers, 80)
		diffLines(t, fmt.Sprintf("floors workers 1 vs %d", workers), refCSV, csv)
		if res.MachineSeconds != ref.MachineSeconds || res.Epochs != ref.Epochs ||
			res.PeakTotalW != ref.PeakTotalW {
			t.Errorf("workers=%d aggregates diverge from serial", workers)
		}
		if len(rec2.budgets) != len(rec.budgets) {
			t.Fatalf("workers=%d: %d control epochs vs %d", workers, len(rec2.budgets), len(rec.budgets))
		}
		for e := range rec.budgets {
			for g := range rec.budgets[e] {
				if rec.budgets[e][g] != rec2.budgets[e][g] {
					t.Fatalf("workers=%d epoch %d group %d budget %v != %v",
						workers, e, g, rec2.budgets[e][g], rec.budgets[e][g])
				}
			}
		}
	}
}
