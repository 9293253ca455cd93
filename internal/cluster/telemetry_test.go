package cluster

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"aapm/internal/machine"
	"aapm/internal/sensor"
	"aapm/internal/telemetry"
)

// TestClusterTelemetry runs a parallel shared-budget co-simulation with
// a registry attached — coordinator series through Telemetry, per-node
// observers through Observe — while concurrent goroutines scrape it
// (the telemetry layer's -race exercise), then checks the coordinator
// families landed with plausible values.
func TestClusterTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()

	// Scrapers hammer the exposition and snapshot paths for the whole
	// run, racing the stepping workers' series writes.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				var buf bytes.Buffer
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
				_ = reg.Snapshot()
			}
		}()
	}

	ns := eightNodes(t)
	res, err := Run(Config{
		BudgetW:   104,
		Nodes:     ns,
		Seed:      7,
		Chain:     sensor.NIDefault(),
		Workers:   4,
		Telemetry: reg,
		Observe: func(i int) []machine.Hook {
			return []machine.Hook{telemetry.NewObserver(reg, ns[i].Workload.Name, "pm")}
		},
	})
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	get := func(fam string) (telemetry.FamilySnapshot, bool) {
		for _, f := range snap.Families {
			if f.Name == fam {
				return f, true
			}
		}
		return telemetry.FamilySnapshot{}, false
	}

	nodes, ok := get("aapm_fleet_nodes")
	if !ok || nodes.Series[0].Value != 8 {
		t.Errorf("aapm_fleet_nodes = %+v (ok=%v), want 8", nodes, ok)
	}
	budget, _ := get("aapm_fleet_budget_watts")
	if budget.Series[0].Value != 104 {
		t.Errorf("budget gauge = %v", budget.Series[0].Value)
	}
	intervals, ok := get("aapm_fleet_intervals_total")
	if !ok || int(intervals.Series[0].Value) != res.Intervals || res.Intervals <= 0 {
		t.Errorf("lockstep intervals counted %v, result %d", intervals.Series, res.Intervals)
	}
	epochs, ok := get("aapm_fleet_reallocation_epochs_total")
	if !ok || int(epochs.Series[0].Value) != res.Epochs || res.Epochs <= 0 {
		t.Errorf("reallocation epochs counted %v, result %d", epochs.Series, res.Epochs)
	}
	// Level-0 groups are single nodes: one budget gauge per node.
	limits, ok := get("aapm_fleet_group_budget_watts")
	if !ok || len(limits.Series) != 8 {
		t.Fatalf("per-node limit series = %d, want 8", len(limits.Series))
	}
	// Each gauge holds the node's last-assigned share: between the
	// floor and the whole budget. (The sum across nodes can exceed the
	// budget at end of run — finished nodes keep their final gauge
	// value while their released share is reallocated.)
	for _, s := range limits.Series {
		if s.Labels[0] != "0" {
			t.Errorf("budget gauge %v on a one-level run, want level 0 only", s.Labels)
		}
		if s.Value < 4 || s.Value > 104 {
			t.Errorf("node %v limit %v, want within [floor, budget]", s.Labels, s.Value)
		}
	}

	// Shard wall-clock histograms: one series per worker, and their
	// total observation count matches the workers' shard-step count.
	shard, ok := get("aapm_fleet_shard_wall_seconds")
	if !ok || len(shard.Series) == 0 {
		t.Fatal("no shard wall-clock series")
	}
	var shardObs uint64
	for _, s := range shard.Series {
		shardObs += s.Count
	}
	if steps := shardSteps(res); int(shardObs) != steps {
		t.Errorf("shard histogram observations %d != %d worker shard-steps", shardObs, steps)
	}

	// Per-node observer series: one ticks counter per node, matching
	// each node's trace length.
	ticks, ok := get(telemetry.MetricTicks)
	if !ok || len(ticks.Series) != 8 {
		t.Fatalf("per-node tick series = %d, want 8", len(ticks.Series))
	}
	byNode := map[string]float64{}
	for _, s := range ticks.Series {
		byNode[s.Labels[0]] = s.Value
	}
	for i, run := range res.Runs {
		if int(byNode[res.Names[i]]) != len(run.Rows) {
			t.Errorf("node %s telemetry ticks %v != %d trace rows", res.Names[i], byNode[res.Names[i]], len(run.Rows))
		}
	}

	// The /metrics acceptance floor: at least 10 families exposed.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "# TYPE "); n < 10 {
		t.Errorf("exposition has %d families, want >= 10", n)
	}
}

// TestClusterTelemetryPreservesTraces pins the observational contract:
// the same run with and without a registry produces byte-identical
// node traces.
func TestClusterTelemetryPreservesTraces(t *testing.T) {
	cfg := Config{
		BudgetW: 104,
		Nodes:   eightNodes(t),
		Seed:    7,
		Chain:   sensor.NIDefault(),
		Workers: 4,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Nodes = eightNodes(t)
	cfg.Telemetry = telemetry.NewRegistry()
	observed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tracesCSV(t, observed), tracesCSV(t, plain)) {
		t.Error("telemetry changed the cluster traces")
	}
}
