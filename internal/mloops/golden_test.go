package mloops

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aapm/internal/cache"
	"aapm/internal/kernel"
	"aapm/internal/phase"
)

// update re-records the training-set fixture instead of checking
// against it:
//
//	go test ./internal/mloops -run TestTrainingSetGolden -update
var update = flag.Bool("update", false, "re-record testdata/training_set.json")

// trainingSetPath pins every configuration's characterization: the
// kernel.Profile of its measured window, the counters of the hierarchy
// that produced it and the phase.Params it distils to.
var trainingSetPath = filepath.Join("testdata", "training_set.json")

// profileRecord is one configuration's recorded characterization.
// Floats are stored as their IEEE-754 bits so the comparison is exact.
type profileRecord struct {
	Name             string      `json:"name"`
	InstructionsBits uint64      `json:"instructions_bits"`
	CoreCyclesBits   uint64      `json:"core_cycles_bits"`
	RowHitRateBits   uint64      `json:"row_hit_rate_bits"`
	ServedL1         uint64      `json:"served_l1"`
	ServedL2         uint64      `json:"served_l2"`
	ServedMem        uint64      `json:"served_mem"`
	MemTraffic       uint64      `json:"mem_traffic"`
	L1               cache.Stats `json:"l1"`
	L2               cache.Stats `json:"l2"`
	PrefetchIssued   uint64      `json:"prefetch_issued"`
	MemAccesses      uint64      `json:"mem_accesses"`
	PrefetchMem      uint64      `json:"prefetch_mem"`
	ParamsBits       []uint64    `json:"params_bits"`
}

// recordConfig characterizes c through a fresh hierarchy, as
// Characterize does, and records the profile and hierarchy counters
// with p, c's entry of the training set.
func recordConfig(t *testing.T, c Config, p phase.Params) profileRecord {
	t.Helper()
	h, err := kernel.NewPentiumMHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := kernel.Characterize(NewGenerator(c.Loop, c.Footprint), h, warmupOps, windowOps)
	if err != nil {
		t.Fatal(err)
	}
	return profileRecord{
		Name:             c.String(),
		InstructionsBits: math.Float64bits(prof.Instructions),
		CoreCyclesBits:   math.Float64bits(prof.CoreCycles),
		RowHitRateBits:   math.Float64bits(prof.RowHitRate),
		ServedL1:         prof.ServedL1,
		ServedL2:         prof.ServedL2,
		ServedMem:        prof.ServedMem,
		MemTraffic:       prof.MemTraffic,
		L1:               h.L1.Stats(),
		L2:               h.L2.Stats(),
		PrefetchIssued:   h.Pref.Issued(),
		MemAccesses:      h.MemAccesses(),
		PrefetchMem:      h.PrefetchMemAccesses(),
		ParamsBits:       paramsBits(p),
	}
}

// TestTrainingSetGolden checks every configuration's characterization
// bit for bit against the recorded fixture, so a faster cache model or
// generator cannot shift the training data the power and performance
// models are fitted to.
func TestTrainingSetGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes all 12 configurations")
	}
	set, err := TrainingSet()
	if err != nil {
		t.Fatal(err)
	}
	var got []profileRecord
	for i, c := range Configs() {
		got = append(got, recordConfig(t, c, set[i]))
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(trainingSetPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trainingSetPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(trainingSetPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/mloops -run TestTrainingSetGolden -update` to record it)", err)
	}
	var want []profileRecord
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d configurations, fixture has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s:\n got %+v\nwant %+v", want[i].Name, got[i], want[i])
		}
	}
}
