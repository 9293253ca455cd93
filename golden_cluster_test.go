package aapm

import (
	"bytes"
	"fmt"
	"testing"
)

// goldenClusterConfig is the shared-budget fixture configuration: four
// one-iteration nodes spanning the suite's power appetites under a
// 30 W cap on the NI chain at seed 3, reallocated every 5 intervals so
// the short run still crosses many epochs.
func goldenClusterConfig(t *testing.T) ClusterConfig {
	t.Helper()
	var nodes []ClusterNode
	for _, name := range []string{"gzip", "crafty", "mcf", "swim"} {
		w, err := Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		w.Iterations = 1
		nodes = append(nodes, ClusterNode{Workload: w})
	}
	return ClusterConfig{
		BudgetW:    30,
		Nodes:      nodes,
		Seed:       3,
		Chain:      NIChain(),
		EpochTicks: 5,
	}
}

// clusterFixture renders a co-simulation result as the fixture: one
// header line pinning the budget aggregates, then every node's trace
// in node order.
func clusterFixture(t *testing.T, res *ClusterResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# MachineSeconds=%v Makespan=%v PeakTotalW=%v OverFrac=%v ContendedOverFrac=%v ContendedIntervals=%d\n",
		res.MachineSeconds, res.Makespan, res.PeakTotalW, res.OverFrac, res.ContendedOverFrac, res.ContendedIntervals)
	for i, run := range res.Runs {
		fmt.Fprintf(&buf, "# node %d %s\n", i, res.Names[i])
		if err := run.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestGoldenCluster pins the shared-budget coordinator end to end:
// traces, energy, degradation-driven p-state choices and the budget
// aggregates must reproduce the fixture byte for byte serially, across
// the worker pool, and with coordinator telemetry plus per-node
// observer hooks attached (which turn on the batch's full event
// order).
func TestGoldenCluster(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		observe bool
	}{
		{"workers=1", 1, false},
		{"workers=4", 4, false},
		{"observed", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if *update && (tc.workers != 1 || tc.observe) {
				t.Skip("fixture owned by the serial run")
			}
			cfg := goldenClusterConfig(t)
			cfg.Workers = tc.workers
			var reg *TelemetryRegistry
			if tc.observe {
				reg = NewTelemetryRegistry()
				cfg.Telemetry = reg
				cfg.Observe = func(i int) []Hook {
					return []Hook{NewTelemetryObserver(reg, fmt.Sprint(i), "pm")}
				}
			}
			res, err := RunCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenBytes(t, "golden_cluster.csv", clusterFixture(t, res))
			if tc.observe {
				var exp bytes.Buffer
				if err := reg.WritePrometheus(&exp); err != nil {
					t.Fatal(err)
				}
				for _, want := range []string{"aapm_fleet_reallocation_epochs_total", `aapm_ticks_total{node="3"`} {
					if !bytes.Contains(exp.Bytes(), []byte(want)) {
						t.Errorf("exposition missing %s", want)
					}
				}
			}
		})
	}
}
