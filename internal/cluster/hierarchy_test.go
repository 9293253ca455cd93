package cluster

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"aapm/internal/sensor"
	"aapm/internal/telemetry"
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

// TestFleetMultiLevelDeterministic pins the multi-level contract: a
// hierarchy of any depth produces byte-identical traces and aggregates
// for every worker count.
func TestFleetMultiLevelDeterministic(t *testing.T) {
	for _, levels := range []int{2, 3} {
		levels := levels
		t.Run(fmt.Sprintf("levels=%d", levels), func(t *testing.T) {
			t.Parallel()
			run := func(workers int) (*FleetResult, []byte) {
				res, err := RunFleet(FleetConfig{
					BudgetW:      16 * 48,
					Nodes:        SyntheticFleet(48, 60),
					Seed:         7,
					Chain:        sensor.NIDefault(),
					Workers:      workers,
					Levels:       levels,
					Fanout:       4,
					RetainTraces: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res, tracesCSV(t, res)
			}
			ref, refCSV := run(1)
			if ref.Levels != levels || ref.Epochs == 0 || ref.Intervals == 0 {
				t.Fatalf("degenerate reference run: %+v", ref)
			}
			wantGroups := []int{12, 3}[:levels-1]
			for i, g := range wantGroups {
				if ref.GroupsPerLevel[i] != g {
					t.Errorf("GroupsPerLevel[%d] = %d, want %d", i, ref.GroupsPerLevel[i], g)
				}
			}
			for _, workers := range []int{5, 8} {
				res, csv := run(workers)
				diffLines(t, fmt.Sprintf("workers 1 vs %d", workers), refCSV, csv)
				if res.MachineSeconds != ref.MachineSeconds || res.Makespan != ref.Makespan ||
					res.PeakTotalW != ref.PeakTotalW || res.OverFrac != ref.OverFrac ||
					res.NodeTicks != ref.NodeTicks || res.Epochs != ref.Epochs {
					t.Errorf("workers=%d aggregates diverge from serial", workers)
				}
			}
		})
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

// fleetBytesPerNodeBudget caps the per-node allocation cost of a
// fleet run (cumulative bytes allocated during RunFleet divided by
// the node count). The footprint is the BatchState's lanes plus one
// machine/PM/run header per node; the budget holds headroom over the
// measured ~1.7 KiB so a regression that, say, reintroduces per-node
// RNGs (~5 KiB each) or per-node tables fails loudly.
const fleetBytesPerNodeBudget = 2560

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
// control-plane seam without issuing directives.
type budgetRecorder struct {
	budgets [][]float64
}

func (r *budgetRecorder) Epoch(o FleetEpochObs) FleetDirectives {
	row := make([]float64, len(o.Groups))
	for g, gr := range o.Groups {
		row[g] = gr.BudgetW
	}
	r.budgets = append(r.budgets, row)
	return FleetDirectives{}
}

// TestFleetHeterogeneousFloors pins the per-group minima path: a
// static GroupSpec floor flows through alloc.Aggregate.MinW into the
// water-fill, the floored group's grant never dips below its minimum
// under budget scarcity, and the heterogeneous-floor allocation stays
// byte-deterministic at any worker count.
func TestFleetHeterogeneousFloors(t *testing.T) {
	run := func(workers int, groups []GroupSpec) (*FleetResult, *budgetRecorder, []byte) {
		rec := &budgetRecorder{}
		res, err := RunFleet(FleetConfig{
			BudgetW:      180,
			Nodes:        SyntheticFleet(16, 120),
			Seed:         5,
			Chain:        sensor.NIDefault(),
			Workers:      workers,
			Levels:       2,
			Fanout:       4,
			EpochTicks:   10,
			Groups:       groups,
			Control:      rec,
			RetainTraces: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, rec, tracesCSV(t, res)
	}
	floors := []GroupSpec{{MinW: 80}, {}, {}, {}}
	ref, rec, refCSV := run(1, floors)
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
	_, base, _ := run(1, nil)
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
		res, rec2, csv := run(workers, floors)
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

// TestFleetGroupsValidation pins the GroupSpec config error paths.
func TestFleetGroupsValidation(t *testing.T) {
	nodes := SyntheticFleet(8, 5)
	if _, err := RunFleet(FleetConfig{BudgetW: 100, Nodes: nodes, Levels: 1,
		Groups: []GroupSpec{{}}}); err == nil {
		t.Error("Groups with one level accepted")
	}
	if _, err := RunFleet(FleetConfig{BudgetW: 100, Nodes: nodes, Levels: 2, Fanout: 4,
		Groups: []GroupSpec{{}}}); err == nil {
		t.Error("wrong Groups length accepted")
	}
	if _, err := RunFleet(FleetConfig{BudgetW: 100, Nodes: nodes, Levels: 2, Fanout: 4,
		Groups: []GroupSpec{{MinW: -1}, {}}}); err == nil {
		t.Error("negative group minimum accepted")
	}
	if _, err := RunFleet(FleetConfig{BudgetW: 100, Nodes: nodes, Levels: 2, Fanout: 4,
		Groups: []GroupSpec{{MinW: 90}, {MinW: 90}}}); err == nil {
		t.Error("group minima exceeding the budget accepted")
	}
}
