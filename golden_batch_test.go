package aapm

// Golden-trace acceptance for NewBatch at the facade level: the same
// pinned fixtures Platform.Run is checked against, built as an explicit
// batch so the test can also assert which event order was selected.
// A bare batch (no full event order) and a hook-carrying one (full)
// must both reproduce the fixtures byte-for-byte. The fixtures stay owned
// by TestGoldenPMTrace and TestGoldenPSTrace, so -update runs skip
// these.

import (
	"bytes"
	"io"
	"testing"
)

// goldenBatchRun executes the canonical fixture configuration through
// a one-lane batch.
func goldenBatchRun(t *testing.T, gov Governor, opts BatchOptions) (*Run, *BatchState) {
	t.Helper()
	m, w := goldenPlatform(t)
	opts.RetainTraces = true
	b, err := NewBatch([]BatchNode{{Machine: m, Workload: w, Governor: gov}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	return b.Result(0), b
}

func TestGoldenPMTraceBatch(t *testing.T) {
	if *update {
		t.Skip("fixture owned by TestGoldenPMTrace")
	}
	pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 14.5})
	if err != nil {
		t.Fatal(err)
	}
	run, b := goldenBatchRun(t, pm, BatchOptions{})
	if b.Kind() != "pm" {
		t.Fatalf("golden PM run selected kind %q, want pm", b.Kind())
	}
	checkGolden(t, "golden_pm_ammp.csv", run)
}

func TestGoldenPSTraceBatch(t *testing.T) {
	if *update {
		t.Skip("fixture owned by TestGoldenPSTrace")
	}
	ps, err := NewPowerSave(PSConfig{Floor: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	run, b := goldenBatchRun(t, ps, BatchOptions{})
	if b.Kind() != "pm" {
		t.Fatalf("golden PS run selected kind %q, want pm", b.Kind())
	}
	checkGolden(t, "golden_ps_ammp.csv", run)
}

// TestGoldenTraceWithTelemetryBatch subscribes observers through
// BatchOptions.Hooks rather than Session.Subscribe: the hooks turn on
// the batch's full event order, which must still produce the fixture
// bytes with the exporters fully fed.
func TestGoldenTraceWithTelemetryBatch(t *testing.T) {
	if *update {
		t.Skip("fixture owned by TestGoldenPMTrace")
	}
	pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 14.5})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewTelemetryRegistry()
	tw := NewTraceEventWriter(io.Discard)
	run, b := goldenBatchRun(t, pm, BatchOptions{
		Hooks: func(int) []Hook {
			return []Hook{
				NewTelemetryObserver(reg, "golden", "pm"),
				tw.RunHook("golden", "pm"),
			}
		},
	})
	if b.Kind() != "generic" {
		t.Fatalf("hook-carrying run selected kind %q, want generic", b.Kind())
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if tw.Events() == 0 {
		t.Fatal("trace exporter saw no events; test is vacuous")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("registry empty after observed run; test is vacuous")
	}
	checkGolden(t, "golden_pm_ammp.csv", run)
}
