package serve

import (
	"math"
	"strings"
	"testing"
)

// TestSpecIDNormalizesDefaults pins the cache-key contract: a spec
// with spelled-out defaults hashes identically to the minimal one.
func TestSpecIDNormalizesDefaults(t *testing.T) {
	minimal := JobSpec{Workload: "ammp", Seed: 1}
	explicit := JobSpec{Workload: "ammp", Seed: 1, Governor: "none", Nodes: 1, Chain: ChainNI}
	if minimal.ID() != explicit.ID() {
		t.Errorf("IDs differ: %s vs %s", minimal.ID(), explicit.ID())
	}
	scaled := JobSpec{Experiment: "fig5", Seed: 1, Scale: 1}
	full := JobSpec{Experiment: "fig5", Seed: 1}
	if scaled.ID() != full.ID() {
		t.Errorf("scale=1 and scale=0 IDs differ: %s vs %s", scaled.ID(), full.ID())
	}
}

func TestSpecIDShape(t *testing.T) {
	id := JobSpec{Workload: "ammp", Seed: 1}.ID()
	if !strings.HasPrefix(id, "j") || len(id) != 17 {
		t.Errorf("id = %q, want j + 16 hex digits", id)
	}
	other := JobSpec{Workload: "ammp", Seed: 2}.ID()
	if id == other {
		t.Error("different seeds hashed to the same job ID")
	}
	if (JobSpec{Workload: "gzip", Seed: 1}).ID() == id {
		t.Error("different workloads hashed to the same job ID")
	}
}

func TestSpecValidate(t *testing.T) {
	valid := []JobSpec{
		{Workload: "ammp", Seed: 1},
		{Workload: "ammp", Governor: "pm:limit=14.5", Seed: 1, Iterations: 2, MaxTicks: 10, Thermal: true},
		{Workload: "gzip", Chain: ChainIdeal},
		{Workload: "gzip", Nodes: 3, BudgetW: 40},
		{Experiment: "fig5", Seed: 3, Scale: 8},
	}
	for _, js := range valid {
		if err := js.Normalize().Validate(); err != nil {
			t.Errorf("%+v rejected: %v", js, err)
		}
	}
	invalid := map[string]JobSpec{
		"empty":                        {},
		"unknown workload":             {Workload: "nope"},
		"unknown governor":             {Workload: "ammp", Governor: "bogus"},
		"bad governor param":           {Workload: "ammp", Governor: "pm:limit=x"},
		"unknown chain":                {Workload: "ammp", Chain: "usb"},
		"negative iterations":          {Workload: "ammp", Iterations: -1},
		"negative max_ticks":           {Workload: "ammp", MaxTicks: -1},
		"max_ticks beyond int32":       {Workload: "ammp", MaxTicks: math.MaxInt32 + 1},
		"scale on workload job":        {Workload: "ammp", Scale: 4},
		"budget on single machine":     {Workload: "ammp", BudgetW: 20},
		"cluster without budget":       {Workload: "ammp", Nodes: 2},
		"cluster with governor":        {Workload: "ammp", Nodes: 2, BudgetW: 30, Governor: "pm:limit=14.5"},
		"cluster with thermal":         {Workload: "ammp", Nodes: 2, BudgetW: 30, Thermal: true},
		"cluster with max_ticks":       {Workload: "ammp", Nodes: 2, BudgetW: 30, MaxTicks: 5},
		"unknown experiment":           {Experiment: "nope"},
		"experiment with workload":     {Experiment: "fig5", Workload: "ammp"},
		"experiment with governor":     {Experiment: "fig5", Governor: "pm:limit=14.5"},
		"experiment with budget":       {Experiment: "fig5", BudgetW: 20},
		"experiment with nodes":        {Experiment: "fig5", Nodes: 2},
		"experiment with iterations":   {Experiment: "fig5", Iterations: 2},
		"experiment negative scale":    {Experiment: "fig5", Scale: -1},
		"negative budget on a cluster": {Workload: "ammp", Nodes: 2, BudgetW: -3},
	}
	for name, js := range invalid {
		if err := js.Normalize().Validate(); err == nil {
			t.Errorf("%s: %+v accepted", name, js)
		}
	}
}

func TestStateTerminal(t *testing.T) {
	for st, want := range map[State]bool{
		StateQueued:   false,
		StateRunning:  false,
		StateDone:     true,
		StateFailed:   true,
		StateCanceled: true,
		StateAborted:  true,
	} {
		if st.Terminal() != want {
			t.Errorf("%s.Terminal() = %v, want %v", st, !want, want)
		}
	}
}
