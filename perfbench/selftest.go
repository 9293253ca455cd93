package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// runSelftest checks, on shrunken workloads, that every metric named in
// BENCHMARK.json prints with its unit, that clean runs count no
// failure, and that a corrupted reference digest is counted as one.
func runSelftest() error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := sameMetrics("end_to_end", bf.EndToEnd, endToEnd); err != nil {
		return err
	}
	if err := sameMetrics("per_layer", bf.PerLayer, perLayer); err != nil {
		return err
	}
	for _, w := range workloads {
		o := opts{workload: w, seed: 1, seconds: 1, variant: "plain", small: true}
		res, err := runEndToEnd(o)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		if err := printed(res, endToEnd); err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
			return fmt.Errorf("%s: clean run reports %d of %d failed", w, res.Failed, res.Attempted)
		}
		o.corrupt = true
		bad, err := runEndToEnd(o)
		if err != nil {
			return fmt.Errorf("%s (corrupted digest): %w", w, err)
		}
		if bad.Failed == 0 || bad.Correct {
			return fmt.Errorf("%s: a corrupted reference digest was not counted as a failure", w)
		}
		fmt.Fprintf(os.Stderr, "selftest %s: %d metrics, %d operations; corrupted digest -> %d failed\n",
			w, len(res.Metrics), res.Attempted, bad.Failed)
	}
	res, err := runLedger(opts{workload: "fleet", seed: 1, seconds: 1, variant: "plain", small: true})
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if err := printed(res, perLayer); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if res.Failed != 0 {
		return fmt.Errorf("ledger: %d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}

func sameMetrics(key string, got []struct{ Name, Unit string }, want []metricDef) error {
	if len(got) != len(want) {
		return fmt.Errorf("BENCHMARK.json %s lists %d metrics, the benchmark reports %d", key, len(got), len(want))
	}
	for i, m := range want {
		if got[i].Name != m.name || got[i].Unit != m.unit {
			return fmt.Errorf("BENCHMARK.json %s[%d] is %s [%s], the benchmark reports %s [%s]", key, i, got[i].Name, got[i].Unit, m.name, m.unit)
		}
	}
	return nil
}

func printed(res runOut, defs []metricDef) error {
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, m := range defs {
		got, ok := res.Metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s missing", m.name)
		}
		if got.Unit != m.unit {
			return fmt.Errorf("metric %s has unit %q, want %q", m.name, got.Unit, m.unit)
		}
	}
	return nil
}
