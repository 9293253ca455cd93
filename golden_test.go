package aapm

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden trace fixtures instead of diffing:
//
//	go test -run TestGolden -update .
var update = flag.Bool("update", false, "rewrite golden trace fixtures under testdata/")

// goldenPlatform returns the canonical fixture configuration: one
// iteration of ammp at seed 1 on the NI measurement chain. Everything
// in the simulation is virtual-time and seed-driven, so its traces
// must reproduce byte-for-byte on every platform.
func goldenPlatform(t *testing.T) (*Platform, WorkloadSpec) {
	t.Helper()
	w, err := Workload("ammp")
	if err != nil {
		t.Fatal(err)
	}
	w.Iterations = 1
	m, err := NewPlatform(PlatformConfig{Chain: NIChain(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m, w
}

// goldenRun runs the fixture configuration under gov through
// Platform.Run, the facade's one-shot entry point.
func goldenRun(t *testing.T, gov Governor) *Run {
	t.Helper()
	m, w := goldenPlatform(t)
	run, err := m.Run(w, gov)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// checkGolden compares the run's CSV against testdata/<name>, row by
// row, or rewrites the fixture under -update.
func checkGolden(t *testing.T, name string, run *Run) {
	t.Helper()
	var buf bytes.Buffer
	if err := run.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGoldenBytes(t, name, buf.Bytes())
}

// checkGoldenBytes compares a rendered fixture against testdata/<name>
// line by line, or rewrites the fixture under -update.
func checkGoldenBytes(t *testing.T, name string, data []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(data))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update .` to create fixtures)", err)
	}
	if bytes.Equal(data, want) {
		return
	}
	// Row-level diff so a drift report names the first diverging
	// intervals rather than just "files differ".
	got := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	exp := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	var diffs []string
	n := len(got)
	if len(exp) > n {
		n = len(exp)
	}
	for i := 0; i < n && len(diffs) < 5; i++ {
		g, e := "<missing>", "<missing>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			diffs = append(diffs, fmt.Sprintf("row %d:\n  got  %s\n  want %s", i, g, e))
		}
	}
	t.Fatalf("golden trace %s drifted (%d vs %d rows); first differing rows:\n%s\n(re-run with -update only if the change is intentional)",
		name, len(got)-1, len(exp)-1, strings.Join(diffs, "\n"))
}

func TestGoldenPMTrace(t *testing.T) {
	pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 14.5})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_pm_ammp.csv", goldenRun(t, pm))
}

func TestGoldenPSTrace(t *testing.T) {
	ps, err := NewPowerSave(PSConfig{Floor: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_ps_ammp.csv", goldenRun(t, ps))
}

// The fixtures must also be insensitive to run order and repetition —
// two back-to-back Platform.Run calls on fresh platforms produce
// identical bytes, and they are the fixture's bytes.
func TestGoldenRunIsDeterministic(t *testing.T) {
	mk := func() *bytes.Buffer {
		pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 14.5})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := goldenRun(t, pm).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	first := mk()
	if !bytes.Equal(first.Bytes(), mk().Bytes()) {
		t.Fatal("two identical-seed runs produced different traces")
	}
	if !*update {
		checkGoldenBytes(t, "golden_pm_ammp.csv", first.Bytes())
	}
}
