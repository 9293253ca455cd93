package kernel

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"aapm/internal/trace"
)

// update re-records the engine reference fixture instead of checking
// against it:
//
//	go test -run TestBatchMatchesStaged -update ./internal/kernel
var update = flag.Bool("update", false, "re-record testdata/staged_reference.json")

// referencePath holds the recorded outputs of every differential case.
// It was first recorded from the staged tick engine (machine.Session's
// five-stage Step, since deleted), so it is the reference that engine
// used to be: every body of the batch engine must reproduce it bit for
// bit.
var referencePath = filepath.Join("testdata", "staged_reference.json")

// reference is one case's recorded outputs. Floats are stored as their
// IEEE-754 bits so the comparison is exact.
type reference struct {
	Name                string              `json:"name"`
	Workload            string              `json:"workload"`
	Policy              string              `json:"policy"`
	DurationNs          int64               `json:"duration_ns"`
	EnergyJBits         uint64              `json:"energy_j_bits"`
	MeasuredEnergyJBits uint64              `json:"measured_energy_j_bits"`
	InstructionsBits    uint64              `json:"instructions_bits"`
	Transitions         int                 `json:"transitions"`
	FailedTransitions   int                 `json:"failed_transitions"`
	Degradations        []trace.Degradation `json:"degradations"`
	DegradationCounts   map[string]int      `json:"degradation_counts"`
	Metrics             metricsRecord       `json:"metrics"`
	CSV                 []string            `json:"csv"`
}

// metricsRecord is the run's counter block: ticks, virtual time,
// stall and busy time, energy and event counts, plus the intervals
// over refLimitW. It was first recorded from a per-run Hook-bus
// collector, so it also pins that the run's own totals count what a
// bus subscriber would.
type metricsRecord struct {
	LimitW            float64 `json:"limit_w"`
	Ticks             int     `json:"ticks"`
	DurationNs        int64   `json:"duration_ns"`
	Transitions       int     `json:"transitions"`
	FailedTransitions int     `json:"failed_transitions"`
	StallNs           int64   `json:"stall_ns"`
	BusyNs            int64   `json:"busy_ns"`
	EnergyJBits       uint64  `json:"energy_j_bits"`
	Violations        int     `json:"violations"`
	Degradations      int     `json:"degradations"`
	Done              bool    `json:"done"`
}

// refLimitW is the power limit the metrics block counts violations
// against.
const refLimitW = 12

// recordRun captures a finalized run as a reference entry.
func recordRun(t *testing.T, name string, run *trace.Run) reference {
	t.Helper()
	return reference{
		Name:                name,
		Workload:            run.Workload,
		Policy:              run.Policy,
		DurationNs:          int64(run.Duration),
		EnergyJBits:         math.Float64bits(run.EnergyJ),
		MeasuredEnergyJBits: math.Float64bits(run.MeasuredEnergyJ),
		InstructionsBits:    math.Float64bits(run.Instructions),
		Transitions:         run.Transitions,
		FailedTransitions:   run.FailedTransitions,
		Degradations:        run.Degradations,
		DegradationCounts:   run.DegradationCounts,
		Metrics: metricsRecord{
			LimitW:            refLimitW,
			Ticks:             run.Ticks,
			DurationNs:        int64(run.Duration),
			Transitions:       run.Transitions,
			FailedTransitions: run.FailedTransitions,
			StallNs:           int64(run.StallTime),
			BusyNs:            int64(run.BusyTime),
			EnergyJBits:       math.Float64bits(run.EnergyJ),
			Violations:        run.IntervalsOver(refLimitW),
			Degradations:      run.DegradationTotal(),
			Done:              true,
		},
		CSV: strings.Split(strings.TrimSuffix(string(csvBytes(t, run)), "\n"), "\n"),
	}
}

// loadReferences reads the fixture, keyed by case name.
func loadReferences(t *testing.T) map[string]reference {
	t.Helper()
	data, err := os.ReadFile(referencePath)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestBatchMatchesStaged -update ./internal/kernel` to record it)", err)
	}
	var refs []reference
	if err := json.Unmarshal(data, &refs); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]reference, len(refs))
	for _, r := range refs {
		byName[r.Name] = r
	}
	return byName
}

// writeReferences rewrites the fixture with refs in the given order.
func writeReferences(t *testing.T, refs []reference) {
	t.Helper()
	data, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(referencePath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(referencePath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s (%d cases, %d bytes)", referencePath, len(refs), len(data)+1)
}

// checkReference asserts run reproduces the recorded entry exactly:
// CSV bytes, float bits of every run-level total, transition counts,
// the degradation log and the metrics block.
func checkReference(t *testing.T, label string, want reference, run *trace.Run) {
	t.Helper()
	got := recordRun(t, want.Name, run)
	if !reflect.DeepEqual(want.CSV, got.CSV) {
		reportCSVDiff(t, label, want.CSV, got.CSV)
	}
	if want.Workload != got.Workload || want.Policy != got.Policy {
		t.Errorf("%s: identity: recorded %s/%s, got %s/%s", label, want.Workload, want.Policy, got.Workload, got.Policy)
	}
	if want.DurationNs != got.DurationNs {
		t.Errorf("%s: duration: recorded %v, got %v", label, time.Duration(want.DurationNs), time.Duration(got.DurationNs))
	}
	for _, f := range []struct {
		what      string
		want, got uint64
	}{
		{"energy", want.EnergyJBits, got.EnergyJBits},
		{"measured energy", want.MeasuredEnergyJBits, got.MeasuredEnergyJBits},
		{"instructions", want.InstructionsBits, got.InstructionsBits},
	} {
		if f.want != f.got {
			t.Errorf("%s: %s: recorded %v, got %v", label, f.what, math.Float64frombits(f.want), math.Float64frombits(f.got))
		}
	}
	if want.Transitions != got.Transitions || want.FailedTransitions != got.FailedTransitions {
		t.Errorf("%s: transitions: recorded %d/%d, got %d/%d",
			label, want.Transitions, want.FailedTransitions, got.Transitions, got.FailedTransitions)
	}
	if !reflect.DeepEqual(want.Degradations, got.Degradations) {
		t.Errorf("%s: degradation logs differ: recorded %d entries, got %d", label, len(want.Degradations), len(got.Degradations))
	}
	if !reflect.DeepEqual(want.DegradationCounts, got.DegradationCounts) {
		t.Errorf("%s: degradation counts: recorded %v, got %v", label, want.DegradationCounts, got.DegradationCounts)
	}
	if want.Metrics != got.Metrics {
		t.Errorf("%s: metrics block:\nrecorded %+v\ngot      %+v", label, want.Metrics, got.Metrics)
	}
}

func csvBytes(t *testing.T, run *trace.Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func reportCSVDiff(t *testing.T, label string, want, got []string) {
	t.Helper()
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			t.Fatalf("%s: CSV line %d differs\nrecorded: %s\ngot:      %s", label, i+1, want[i], got[i])
		}
	}
	t.Fatalf("%s: CSV lengths differ: recorded %d lines, got %d", label, len(want), len(got))
}
