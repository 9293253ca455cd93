// Package aapm is a reproduction of "Application-Aware Power
// Management" (Rajamani, Hanson, Rubio, Ghiasi, Rawson — IBM Austin
// Research Lab, IISWC 2006) as a self-contained Go library.
//
// The package exposes the system the paper prototypes — the
// three-phase monitor/estimate/control methodology, the counter-based
// power and performance models, and the PerformanceMaximizer (PM) and
// PowerSave (PS) policies — on a deterministic simulated Pentium M 755
// platform (p-states, PMU, sense-resistor power measurement, cache
// hierarchy, and a synthetic SPEC CPU2000 suite).
//
// Quick start:
//
//	m, _ := aapm.NewPlatform(aapm.PlatformConfig{Seed: 1})
//	w, _ := aapm.Workload("ammp")
//	pm, _ := aapm.NewPerformanceMaximizer(aapm.PMConfig{LimitW: 14.5})
//	run, _ := m.Run(w, pm)
//	fmt.Printf("%.2fs at %.2fW average\n", run.Duration.Seconds(), run.AvgPowerW())
//
// The experiment entry points that regenerate every table and figure
// of the paper's evaluation live behind NewExperiments; the runnable
// commands are cmd/aapm-run, cmd/aapm-train and cmd/aapm-eval.
package aapm

import (
	"io"

	"aapm/internal/cluster"
	"aapm/internal/control"
	"aapm/internal/faults"
	"aapm/internal/intent"
	"aapm/internal/machine"
	"aapm/internal/mixes"
	"aapm/internal/model"
	"aapm/internal/phase"
	"aapm/internal/pstate"
	"aapm/internal/sensor"
	"aapm/internal/serve"
	"aapm/internal/spec"
	"aapm/internal/telemetry"
	"aapm/internal/thermal"
	"aapm/internal/trace"
)

// Platform is the simulated Pentium M machine workloads run on.
type Platform = machine.Machine

// PlatformConfig configures a Platform; the zero value selects the
// paper's setup (Pentium M 755 table, NI-like measurement chain is NOT
// implied — pass Chain: aapm.NIChain() to add realistic noise).
type PlatformConfig = machine.Config

// TickInfo is what a governor observes each 10 ms interval.
type TickInfo = machine.TickInfo

// Governor is a power-management policy driving p-state decisions.
type Governor = machine.Governor

// Session is an in-progress run advanced one monitoring interval at a
// time — a one-lane view of the tick engine (see BatchState); subscribe
// Hooks to it before stepping.
type Session = machine.Session

// Hook observes the tick engine: one OnTick per interval, plus
// transition, degradation and run-done events. Embed HookBase and
// override only what you need, then pass the hook to
// Platform.RunWith or Session.Subscribe.
type Hook = machine.Hook

// HookBase is a no-op Hook for embedding.
type HookBase = machine.BaseHook

// TickState is the per-interval record the tick engine delivers to
// every Hook.
type TickState = machine.TickState

// Transition describes one p-state change the engine's actuate stage
// resolved.
type Transition = machine.Transition

// Run is a recorded workload execution.
type Run = trace.Run

// TraceRow is one 10 ms interval of a Run.
type TraceRow = trace.Row

// PState is one voltage/frequency operating point.
type PState = pstate.PState

// PStateTable is an ordered set of p-states.
type PStateTable = pstate.Table

// WorkloadSpec is a phase-trace workload description.
type WorkloadSpec = phase.Workload

// PhaseParams describes one workload phase.
type PhaseParams = phase.Params

// PMConfig configures a PerformanceMaximizer.
type PMConfig = control.PMConfig

// PSConfig configures a PowerSave policy.
type PSConfig = control.PSConfig

// PerformanceMaximizer is the paper's PM policy: the highest frequency
// whose predicted power fits a runtime-adjustable limit.
type PerformanceMaximizer = control.PerformanceMaximizer

// PowerSave is the paper's PS policy: the lowest frequency whose
// predicted performance clears a floor.
type PowerSave = control.PowerSave

// StaticClock pins one p-state (the conventional baseline).
type StaticClock = control.StaticClock

// OnDemand is a Linux-ondemand-style utilization governor baseline.
type OnDemand = control.OnDemand

// PowerModel is the per-p-state DPC power model (paper eq. 2).
type PowerModel = model.PowerModel

// PerfModel is the two-class IPC projection model (paper eq. 3).
type PerfModel = model.PerfModel

// ThermalConfig describes a package thermal path (RC model).
type ThermalConfig = thermal.Config

// ThermalGuardConfig configures a ThermalGuard policy.
type ThermalGuardConfig = control.ThermalGuardConfig

// ThermalGuard keeps die temperature under a limit by DVFS.
type ThermalGuard = control.ThermalGuard

// ThrottleSaveConfig configures a ThrottleSave policy.
type ThrottleSaveConfig = control.ThrottleSaveConfig

// ThrottleSave meets a performance floor with ACPI T-state clock
// modulation instead of DVFS (the ablation partner of PowerSave).
type ThrottleSave = control.ThrottleSave

// NewPlatform builds a simulated platform.
func NewPlatform(cfg PlatformConfig) (*Platform, error) { return machine.New(cfg) }

// PentiumM755 returns the paper platform's p-state table (Table II
// voltage/frequency pairs).
func PentiumM755() *PStateTable { return pstate.PentiumM755() }

// NIChain returns a measurement chain with the simulated DAQ's gain
// error, noise and quantization; use sensor-free PlatformConfig for
// ideal readings.
func NIChain() sensor.Chain { return sensor.NIDefault() }

// Workload returns a synthetic SPEC CPU2000 workload by name
// (see WorkloadNames).
func Workload(name string) (WorkloadSpec, error) { return spec.ByName(name) }

// WorkloadNames lists the 26 SPEC CPU2000 workloads in suite order.
func WorkloadNames() []string { return spec.Names() }

// NewPerformanceMaximizer builds a PM policy.
func NewPerformanceMaximizer(cfg PMConfig) (*PerformanceMaximizer, error) {
	return control.NewPerformanceMaximizer(cfg)
}

// NewPowerSave builds a PS policy.
func NewPowerSave(cfg PSConfig) (*PowerSave, error) { return control.NewPowerSave(cfg) }

// NewStaticClock builds a pinned-frequency baseline at p-state index i.
func NewStaticClock(i int, label string) *StaticClock { return control.NewStaticClock(i, label) }

// PaperPowerModel returns the published Table II power model.
func PaperPowerModel() *PowerModel { return model.PaperPowerModel() }

// PaperPerfModel returns eq. 3 with the published 1.21/0.81 values.
func PaperPerfModel() PerfModel { return model.PaperPerfModel() }

// PentiumMThermal returns the default package thermal path; pass its
// address in PlatformConfig.Thermal to enable the die-temperature
// model.
func PentiumMThermal() ThermalConfig { return thermal.PentiumMThermal() }

// NewThermalGuard builds a thermal-envelope policy.
func NewThermalGuard(cfg ThermalGuardConfig) (*ThermalGuard, error) {
	return control.NewThermalGuard(cfg)
}

// NewThrottleSave builds a T-state clock-modulation policy.
func NewThrottleSave(cfg ThrottleSaveConfig) (*ThrottleSave, error) {
	return control.NewThrottleSave(cfg)
}

// MixWorkloads returns the utilization-mix set (interactive office,
// web serving at 50% and 90%, full-load batch) used by the
// demand-based-switching comparison.
func MixWorkloads() []WorkloadSpec { return mixes.All() }

// ClusterNode assigns a workload to one machine in a shared-budget
// co-simulation.
type ClusterNode = cluster.Node

// ClusterConfig describes a shared-budget co-simulation; it is
// FleetConfig, run as a one-level tree unless Levels says otherwise.
// Telemetry receives the coordinator's aapm_fleet_* series only; attach
// per-node hooks (a NewTelemetryObserver, a TraceEventWriter run hook)
// through Observe, which returns node i's hooks.
type ClusterConfig = cluster.Config

// ClusterResult is a co-simulation outcome (the same type as
// FleetResult).
type ClusterResult = cluster.Result

// RunCluster co-simulates several machines under one power budget,
// retaining every node's trace rows; see internal/cluster for the
// coordinator's water-filling policy.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) { return cluster.Run(cfg) }

// FleetConfig describes a shared-budget co-simulation over an
// allocation tree (root over pods over racks over nodes), sized for
// fleets of 10⁵+ nodes in one process.
type FleetConfig = cluster.FleetConfig

// FleetResult is a co-simulation outcome.
type FleetResult = cluster.FleetResult

// RunFleet co-simulates a node fleet under the one coordinator: a
// one-level fleet is RunCluster (minus the retained rows, unless
// RetainTraces asks for them); deeper trees re-run the same allocator
// over per-group aggregates at each level. See the "Hierarchical fleet
// coordinator" section of DESIGN.md.
func RunFleet(cfg FleetConfig) (*FleetResult, error) { return cluster.RunFleet(cfg) }

// SyntheticFleetNodes builds n synthetic leaf nodes (three fixed
// profiles, round-robin) sized to run roughly the given number of
// 10 ms intervals each — the stock population for fleet-scale
// benchmarks.
func SyntheticFleetNodes(n, ticks int) []ClusterNode { return cluster.SyntheticFleet(n, ticks) }

// FleetControl is the fleet's control-plane seam: an implementation
// observes per-group aggregates at every epoch barrier and answers
// with budget directives (group minima, caps, weights) and per-node
// overrides. IntentController is the stock implementation; see the
// "Intent orchestration" section of DESIGN.md.
type FleetControl = cluster.FleetControl

// IntentSpec declares one fleet intent: a power cap, minimum-
// performance floor, drain, or priority weight on a node group.
type IntentSpec = intent.Spec

// IntentStatus reports one intent's reconcile state: converging or
// converged, current enforcement phase, and the last observation.
type IntentStatus = intent.Status

// IntentReason is a machine-readable admission rejection (code +
// human-readable detail).
type IntentReason = intent.Reason

// IntentCapability is the aggregate fleet capability intents are
// admitted against; derive it from a FleetConfig with
// IntentCapabilityOf.
type IntentCapability = intent.Capability

// IntentController reconciles admitted intents against a running
// fleet; wire it in as FleetConfig.Control.
type IntentController = intent.Controller

// IntentConfig configures an IntentController.
type IntentConfig = intent.Config

// IntentCapabilityOf derives the admission capability from a fleet
// configuration.
func IntentCapabilityOf(cfg FleetConfig) IntentCapability { return intent.CapabilityOf(cfg) }

// NewIntentController builds an intent controller over the given
// capability; Submit intents to it and pass it as FleetConfig.Control.
func NewIntentController(cfg IntentConfig) (*IntentController, error) { return intent.New(cfg) }

// BatchNode binds one node's platform, workload and governor for a
// batch run. The governor must be a fresh instance, exactly as with
// Platform.Run.
type BatchNode = machine.BatchNode

// BatchOptions configures a batch run (trace retention, observer
// hooks).
type BatchOptions = machine.BatchOptions

// BatchState is the tick engine: contiguous per-node tick state
// stepped by one of two loop bodies, chosen per run, the faster of
// which makes zero heap allocations per tick. It is the only implementation of the 10 ms
// loop — Platform.Run and Session step a one-lane BatchState — so a
// node's run is byte-identical in any batch and alone. Step it with
// StepNode/StepAll/Run from one goroutine, or disjoint nodes from
// several goroutines with one Stepper each, and read results with
// Result; see the "Tick engine and Hook bus" section of DESIGN.md.
type BatchState = machine.BatchState

// Stepper steps nodes of one BatchState from one goroutine
// (BatchState.NewStepper).
type Stepper = machine.Stepper

// NewBatch builds a tick engine over the given nodes, each initialized
// exactly as a Session of it would be.
func NewBatch(nodes []BatchNode, opts BatchOptions) (*BatchState, error) {
	return machine.NewBatch(nodes, opts)
}

// RunBatch steps every node of a batch to completion and returns the
// per-node runs in node order: Platform.Run for many nodes at once.
func RunBatch(nodes []BatchNode, opts BatchOptions) ([]*Run, error) {
	b, err := machine.NewBatch(nodes, opts)
	if err != nil {
		return nil, err
	}
	if err := b.Run(); err != nil {
		return nil, err
	}
	runs := make([]*Run, b.Len())
	for i := range runs {
		runs[i] = b.Result(i)
	}
	return runs, nil
}

// FaultPlan composes sensor, counter and actuator fault injection for
// a platform; pass its address in PlatformConfig.Faults. Faults
// corrupt only what governors observe, never the ground-truth physics.
type FaultPlan = faults.Plan

// SensorFaultPlan describes measured-power faults (dropout, stuck-at,
// spikes, gain drift).
type SensorFaultPlan = faults.SensorPlan

// CounterFaultPlan describes PMU sample faults (missed reads, 32-bit
// wrap, saturation).
type CounterFaultPlan = faults.CounterPlan

// ActuatorFaultPlan describes p-state transition faults (failures,
// retries, latency jitter).
type ActuatorFaultPlan = faults.ActuatorPlan

// Degradation is one entry in a run's degradation log: an injected
// fault or a governor's graceful-degradation response.
type Degradation = trace.Degradation

// FaultPreset returns a balanced fault plan exercising every fault
// class at the given base per-interval rate (e.g. 0.05).
func FaultPreset(rate float64) FaultPlan { return faults.Preset(rate) }

// TelemetryRegistry is a concurrency-safe registry of counters, gauges
// and histograms exportable as Prometheus text (WritePrometheus) or a
// structured Snapshot; see internal/telemetry.
type TelemetryRegistry = telemetry.Registry

// NewTelemetryRegistry builds an empty telemetry registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewTelemetryObserver returns a Hook that feeds a run's intervals,
// transitions and degradations into the registry under the given node
// and governor labels. One observer observes one session at a time.
func NewTelemetryObserver(reg *TelemetryRegistry, node, governor string) Hook {
	return telemetry.NewObserver(reg, node, governor)
}

// TraceEventWriter streams Chrome trace-event JSON (Perfetto,
// chrome://tracing) as runs execute; subscribe its RunHook to a
// session, or pass one per run via ClusterConfig.Observe.
type TraceEventWriter = telemetry.TraceEventWriter

// NewTraceEventWriter builds a trace-event writer over w. Call Close
// to finish the JSON array (the underlying writer is not closed).
func NewTraceEventWriter(w io.Writer) *TraceEventWriter {
	return telemetry.NewTraceEventWriter(w)
}

// RunService is the asynchronous run service: a bounded job queue
// with backpressure, a worker pool reusing the simulation entry
// points, a content-addressed result cache, and an NDJSON progress
// stream per job; mount RunService.Handler on an HTTP mux (see
// cmd/aapm-serve).
type RunService = serve.Service

// RunServiceConfig configures a RunService; the zero value gives a
// queue of 64, min(GOMAXPROCS, 4) workers and a 2-minute job deadline.
type RunServiceConfig = serve.Config

// JobSpec describes one run-service job; equal normalized specs share
// one content-addressed job (and therefore one cached result).
type JobSpec = serve.JobSpec

// JobState is a run-service job's lifecycle state
// (queued/running/done/failed/canceled/aborted).
type JobState = serve.State

// NewRunService starts a run service's workers and returns it; call
// Shutdown to drain.
func NewRunService(cfg RunServiceConfig) *RunService { return serve.New(cfg) }

// WorkloadFromTrace inverts a recorded run into a replayable workload —
// the record-and-replay workflow for evaluating policies offline from
// captured traces. mlp is the assumed memory-level parallelism (pass 0
// for the default of 2).
func WorkloadFromTrace(name string, rows []TraceRow, table *PStateTable, mlp float64) (WorkloadSpec, error) {
	return phase.FromTrace(name, rows, table, mlp)
}
