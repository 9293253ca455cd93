package experiment

import "io"

// Printable is any experiment result that can render itself.
type Printable interface {
	Print(io.Writer) error
}

// Named is one registry entry: a stable name (the aapm-eval -exp key)
// and the entry point that computes the result on a context.
type Named struct {
	// Name is the selection key.
	Name string
	// Describe is a one-line summary for listings.
	Describe string
	// Run computes the result.
	Run func(*Context) (Printable, error)
}

// Registry lists every experiment in presentation order: first the
// paper's tables and figures, then the extension studies.
func Registry() []Named {
	return []Named{
		{"fig1", "power variation across SPEC at 2 GHz", func(c *Context) (Printable, error) { return c.Fig1PowerVariation() }},
		{"fig2", "p-state performance impact (swim/gap/sixtrack)", func(c *Context) (Printable, error) { return c.Fig2PstatePerformance() }},
		{"table1", "MS-Loops training-set characterization", func(c *Context) (Printable, error) { return c.TableIMicrobenchmarks() }},
		{"table2", "trained power model vs published Table II", func(c *Context) (Printable, error) { return c.TableIIPowerModel() }},
		{"table3", "worst-case FMA-256KB power vs frequency", func(c *Context) (Printable, error) { return c.TableIIIWorstCase() }},
		{"table4", "power limit to static frequency rule", func(c *Context) (Printable, error) { return c.TableIVStaticFrequencies() }},
		{"fig5", "PM timeline on ammp", func(c *Context) (Printable, error) { return c.Fig5PMTimeline() }},
		{"fig6", "suite performance vs power limit", func(c *Context) (Printable, error) { return c.Fig6PerfVsPowerLimit() }},
		{"fig7", "per-benchmark PM speedup at 17.5 W", func(c *Context) (Printable, error) { return c.Fig7PMSpeedup() }},
		{"adherence", "PM power-limit adherence", func(c *Context) (Printable, error) { return c.PMLimitAdherence() }},
		{"fig8", "PS timeline on ammp at the 80% floor", func(c *Context) (Printable, error) { return c.Fig8PSTimeline() }},
		{"fig9", "suite PS loss and savings per floor", func(c *Context) (Printable, error) { return c.Fig9PSSuite() }},
		{"fig10", "per-workload PS energy savings", func(c *Context) (Printable, error) { return c.Fig10EnergySavings() }},
		{"fig11", "per-workload PS loss + exponent ablation", func(c *Context) (Printable, error) { return c.Fig11PerfReduction() }},
		{"characterization", "per-benchmark counter rates at 2 GHz", func(c *Context) (Printable, error) { return c.WorkloadCharacterization() }},
		{"scorecard", "paper-vs-measured verdict on every claim", func(c *Context) (Printable, error) { return c.PaperComparison() }},
		// Extension studies beyond the paper's evaluation section.
		{"feedback", "measured-power feedback PM (paper future work)", func(c *Context) (Printable, error) { return c.FeedbackExtension() }},
		{"mux", "PS under two-counter PMU multiplexing", func(c *Context) (Printable, error) { return c.MultiplexStudy() }},
		{"baselines", "ondemand and cruise-control baselines", func(c *Context) (Printable, error) { return c.BaselineComparison() }},
		{"sharedbudget", "closed-loop shared power budget", func(c *Context) (Printable, error) { return c.SharedBudget() }},
		{"thermal", "thermal envelope control", func(c *Context) (Printable, error) { return c.ThermalStudy() }},
		{"throttle", "DVFS vs T-state clock throttling", func(c *Context) (Printable, error) { return c.DVFSvsThrottling() }},
		{"utilization", "governors across the utilization axis", func(c *Context) (Printable, error) { return c.UtilizationStudy() }},
		{"seeds", "headline-metric stability across seeds", func(c *Context) (Printable, error) { return c.SeedSensitivity() }},
		{"guardband", "PM guardband sweep on galgel", func(c *Context) (Printable, error) { return c.GuardbandSweep() }},
		{"faults", "governor robustness under injected faults", func(c *Context) (Printable, error) { return c.FaultSweep() }},
		{"engine", "tick-engine counters from each run's totals", func(c *Context) (Printable, error) { return c.EngineMetrics() }},
		{"platform", "power-model platform specificity", func(c *Context) (Printable, error) { return c.PlatformSpecificity() }},
	}
}
