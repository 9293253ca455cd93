package spec

import (
	"testing"

	"aapm/internal/model"
	"aapm/internal/phase"
	"aapm/internal/pstate"
)

func TestSuiteHas26UniqueBenchmarks(t *testing.T) {
	names := Names()
	if len(names) != 26 {
		t.Fatalf("suite has %d benchmarks, want 26", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate benchmark %q", n)
		}
		seen[n] = true
	}
	// The canonical CPU2000 names must all be present.
	want := []string{
		"gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "perlbmk",
		"gap", "vortex", "bzip2", "twolf",
		"wupwise", "swim", "mgrid", "applu", "mesa", "galgel", "art",
		"equake", "facerec", "ammp", "lucas", "fma3d", "sixtrack", "apsi",
	}
	for _, n := range want {
		if !seen[n] {
			t.Errorf("missing benchmark %q", n)
		}
	}
}

func TestAllWorkloadsValidate(t *testing.T) {
	ws, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 26 {
		t.Fatalf("All returned %d workloads", len(ws))
	}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.TotalInstructions() <= 0 {
			t.Errorf("%s has no instructions", w.Name)
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("ammp")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "ammp" || len(w.Phases) != 2 {
		t.Errorf("ammp = %d phases", len(w.Phases))
	}
	if _, err := ByName("spice"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := ClassOf("spice"); err == nil {
		t.Error("unknown benchmark class accepted")
	}
}

func TestClassStrings(t *testing.T) {
	if CoreBound.String() != "core-bound" || MemoryBound.String() != "memory-bound" || Mixed.String() != "mixed" {
		t.Error("class names wrong")
	}
	if Class(9).String() != "class(9)" {
		t.Error("unknown class name wrong")
	}
}

// instrWeightedStallPerInst returns the benchmark's DCU/IPC at the
// given p-state, weighted by per-phase instruction counts.
func instrWeightedStallPerInst(t *testing.T, w phase.Workload, ps pstate.PState) float64 {
	t.Helper()
	var stall, instr float64
	for _, p := range w.Phases {
		stall += p.StallPerInst(ps) * p.Instructions
		instr += p.Instructions
	}
	if instr == 0 {
		t.Fatalf("%s has no instructions", w.Name)
	}
	return stall / instr
}

// TestClassesMatchModelClassification pins the paper's groupings: the
// six memory-bound benchmarks classify memory-bound under eq. 3's
// threshold at 2 GHz; the five core-bound ones classify core-bound.
func TestClassesMatchModelClassification(t *testing.T) {
	ps2000 := pstate.PentiumM755().Max()
	for _, n := range Names() {
		w, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		cls, err := ClassOf(n)
		if err != nil {
			t.Fatal(err)
		}
		stall := instrWeightedStallPerInst(t, w, ps2000)
		memBound := stall >= model.PaperDCUThreshold
		switch cls {
		case MemoryBound:
			if !memBound {
				t.Errorf("%s labeled memory-bound but DCU/IPC@2GHz = %.2f < %.2f", n, stall, model.PaperDCUThreshold)
			}
		case CoreBound:
			if memBound {
				t.Errorf("%s labeled core-bound but DCU/IPC@2GHz = %.2f", n, stall)
			}
		}
	}
}

// TestPaperMemoryBoundGroup checks the six benchmarks the paper calls
// out as DRAM-bound gain almost nothing from 1800 -> 2000 MHz.
func TestPaperMemoryBoundGroup(t *testing.T) {
	tab := pstate.PentiumM755()
	p1800, _ := tab.ByFreq(1800)
	p2000, _ := tab.ByFreq(2000)
	// art sits at the right edge of the memory-bound group in Fig 7
	// (it is the "in-between" workload), so it gets a looser bound.
	limits := map[string]float64{
		"swim": 1.05, "lucas": 1.05, "equake": 1.05,
		"mcf": 1.05, "applu": 1.05, "art": 1.07,
	}
	for n, lim := range limits {
		w, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		gain := w.TimeAt(p1800).Seconds() / w.TimeAt(p2000).Seconds()
		if gain > lim {
			t.Errorf("%s speeds up %.1f%% from 1800->2000, want < %.0f%%", n, (gain-1)*100, (lim-1)*100)
		}
	}
}

// TestPaperCoreBoundGroup checks the core-bound five scale nearly
// linearly with frequency.
func TestPaperCoreBoundGroup(t *testing.T) {
	tab := pstate.PentiumM755()
	p1800, _ := tab.ByFreq(1800)
	p2000, _ := tab.ByFreq(2000)
	for _, n := range []string{"perlbmk", "mesa", "eon", "crafty", "sixtrack"} {
		w, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		gain := w.TimeAt(p1800).Seconds() / w.TimeAt(p2000).Seconds()
		if gain < 1.09 {
			t.Errorf("%s speeds up only %.1f%% from 1800->2000, want ~11%%", n, (gain-1)*100)
		}
	}
}

// TestRunDurationsReasonable bounds full-run times at 2 GHz so the
// experiment sweeps stay tractable.
func TestRunDurationsReasonable(t *testing.T) {
	ps2000 := pstate.PentiumM755().Max()
	ws, err := All()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		d := w.TimeAt(ps2000).Seconds()
		if d < 15 || d > 60 {
			t.Errorf("%s runs %.1fs at 2 GHz, want 15..60s", w.Name, d)
		}
	}
}

// TestArtMcfCalibration pins the two PS-violation benchmarks to the
// in-between region: memory-classified at 2 GHz and still
// memory-classified at 800 MHz (so PS holds them low), yet with enough
// frequency sensitivity to break their floors (§IV-B.2).
func TestArtMcfCalibration(t *testing.T) {
	tab := pstate.PentiumM755()
	p800, _ := tab.ByFreq(800)
	p2000, _ := tab.ByFreq(2000)
	for _, n := range []string{"art", "mcf"} {
		w, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		at2000 := instrWeightedStallPerInst(t, w, p2000)
		at800 := instrWeightedStallPerInst(t, w, p800)
		if at2000 < model.PaperDCUThreshold || at800 < model.PaperDCUThreshold {
			t.Errorf("%s declassifies: DCU/IPC %.2f@2GHz, %.2f@800MHz", n, at2000, at800)
		}
		// True performance loss at 800 MHz must exceed the 20% the
		// 80% floor allows (the paper's violation).
		loss := 1 - w.TimeAt(p2000).Seconds()/w.TimeAt(p800).Seconds()
		if loss < 0.25 {
			t.Errorf("%s loses only %.1f%% at 800 MHz; too mild to violate the floor", n, loss*100)
		}
	}
}
