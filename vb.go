// Package vb is the public API of the Virtual Battery simulator, a
// reproduction of "Redesigning Data Centers for Renewable Energy"
// (HotNets '21). It re-exports the building blocks — synthetic renewable
// energy worlds, forecast bundles, cloud workloads, the single-site cluster
// simulator, the site latency graph, and the network- and power-aware
// multi-site co-scheduler — and provides one-call runners for every table
// and figure in the paper's evaluation (see experiments.go).
//
// Quick start:
//
//	world := vb.NewWorld(42)
//	sites := vb.EuropeanTrio()
//	power, err := world.GeneratePower(sites, start, time.Hour, 24*7)
//
// See the examples/ directory for complete programs.
package vb

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/vbcloud/vb/internal/cluster"
	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/econ"
	"github.com/vbcloud/vb/internal/energy"
	"github.com/vbcloud/vb/internal/fault"
	"github.com/vbcloud/vb/internal/forecast"
	"github.com/vbcloud/vb/internal/graph"
	"github.com/vbcloud/vb/internal/obs"
	"github.com/vbcloud/vb/internal/obs/expo"
	"github.com/vbcloud/vb/internal/plot"
	"github.com/vbcloud/vb/internal/sim"
	"github.com/vbcloud/vb/internal/stats"
	"github.com/vbcloud/vb/internal/trace"
	"github.com/vbcloud/vb/internal/wan"
	"github.com/vbcloud/vb/internal/workload"
)

// Time-series substrate.
type (
	// Series is a regularly sampled time series (power, traffic, ...).
	Series = trace.Series
	// CDF is an empirical cumulative distribution function.
	CDF = stats.CDF
	// Summary holds descriptive statistics of a sample.
	Summary = stats.Summary
	// Point is an (x, y) plot coordinate, e.g. one CDF point.
	Point = stats.Point
)

// Renewable energy modelling.
type (
	// World generates correlated renewable power traces for a site fleet.
	World = energy.World
	// SiteConfig describes one renewable site (source, location, capacity).
	SiteConfig = energy.SiteConfig
	// Source is a renewable source type (Solar or Wind).
	Source = energy.Source
	// Split is a stable/variable energy decomposition.
	Split = energy.Split
	// ComboResult evaluates an aggregated site combination.
	ComboResult = energy.ComboResult
	// TopUp is a grid-purchase floor raise plan.
	TopUp = energy.TopUp
)

// Renewable source types.
const (
	Solar = energy.Solar
	Wind  = energy.Wind
)

// Forecasting.
type (
	// Forecaster generates horizon-calibrated pseudo-forecasts.
	Forecaster = forecast.Forecaster
	// Bundle holds one site's forecasts at the standard horizons.
	Bundle = forecast.Bundle
)

// Standard forecast horizons (paper Fig 5).
const (
	Horizon3H   = forecast.Horizon3H
	HorizonDay  = forecast.HorizonDay
	HorizonWeek = forecast.HorizonWeek
)

// Workloads.
type (
	// VM is a virtual machine request.
	VM = workload.VM
	// App is a multi-VM application request.
	App = workload.App
	// WorkloadConfig parameterizes VM trace generation.
	WorkloadConfig = workload.Config
	// AppConfig parameterizes application trace generation.
	AppConfig = workload.AppConfig
	// WorkloadClass is a VM's SLO class (pause tolerance + scheduler pause
	// cost weight).
	WorkloadClass = workload.Class
	// CohortSpec describes one workload cohort (class, renewal process,
	// size profile, lifetime distribution).
	CohortSpec = workload.CohortSpec
	// TraceSpec is a versioned cohort-mix description, the unit of the
	// scenario library (see GenerateCohortApps).
	TraceSpec = workload.TraceSpec
	// TraceHeader is the first record of a v2 application trace file.
	TraceHeader = workload.TraceHeader
)

// VM SLO classes, in descending pause-cost order. Stable and Degradable are
// the paper's original two-value split; RealTime, Interactive and Batch
// refine the firm side with distinct pause tolerances and scheduler weights.
const (
	RealTime    = workload.RealTime
	Interactive = workload.Interactive
	Stable      = workload.Stable
	Batch       = workload.Batch
	Degradable  = workload.Degradable
)

// AllWorkloadClasses lists every SLO class in degradation-ladder order
// (most pause-averse first).
func AllWorkloadClasses() []WorkloadClass {
	return append([]WorkloadClass(nil), workload.AllClasses...)
}

// GenerateCohortApps produces an application trace from a cohort-mix spec:
// each cohort contributes an independent deterministic stream of apps with
// its own SLO class, renewal process and size profile, merged in arrival
// order.
func GenerateCohortApps(spec TraceSpec) ([]App, error) { return workload.GenerateCohorts(spec) }

// LoadTraceSpec reads a JSON cohort-mix spec from disk.
func LoadTraceSpec(path string) (*TraceSpec, error) { return workload.LoadTraceSpec(path) }

// WriteAppTrace records applications as a versioned JSONL trace (trace v2):
// a header line (format, version, seed, spec hash) followed by one
// self-describing record per app. A recorded trace replays bit-identically.
func WriteAppTrace(w io.Writer, h TraceHeader, apps []App) error {
	return workload.WriteTraceV2(w, h, apps)
}

// ReadAppTrace decodes a trace written by WriteAppTrace, returning the
// header and the exact recorded applications.
func ReadAppTrace(r io.Reader) (TraceHeader, []App, error) { return workload.ReadTraceV2(r) }

// Single-site cluster simulation (paper §3, Fig 4).
type (
	// ClusterConfig describes one VB site's hardware.
	ClusterConfig = cluster.Config
	// ClusterSite simulates one power-tracking site.
	ClusterSite = cluster.Site
	// ClusterRunResult is the outcome of driving a site through a power
	// trace.
	ClusterRunResult = cluster.RunResult
)

// Site graph (scheduler step 1).
type (
	// Graph is the VB site latency graph.
	Graph = graph.Graph
	// RankedClique is a candidate placement group scored by cov.
	RankedClique = graph.RankedClique
)

// Scheduler (the paper's contribution, §3.1).
type (
	// Policy selects a Table 1 scheduling policy.
	Policy = core.Policy
	// SchedulerConfig parameterizes the co-scheduler.
	SchedulerConfig = core.Config
	// AppDemand is the scheduler's view of an application.
	AppDemand = core.AppDemand
	// CapacityFn estimates a site's usable stable cores at a future step.
	CapacityFn = core.CapacityFn
	// Plan is an application's allocation schedule.
	Plan = core.Plan
	// Scheduler places applications across a multi-VB group.
	Scheduler = core.Scheduler
	// SimInput bundles a multi-site simulation's inputs.
	SimInput = sim.Input
	// SimResult is a policy run's outcome.
	SimResult = sim.Result
	// VMLevelResult is a VM-granularity policy run's outcome.
	VMLevelResult = sim.VMLevelResult
)

// Online stepping engines (the cores behind RunPolicy/RunPolicyVMLevel,
// exported for long-lived daemons such as cmd/vbserve).
type (
	// SimEngine advances the fluid core-level simulation one plan step at
	// a time; feeding it the batch arrivals in Start order reproduces
	// RunPolicy bit-for-bit.
	SimEngine = sim.Engine
	// SimStepReport is one SimEngine step's decision record.
	SimStepReport = sim.StepReport
	// VMEngine advances the VM-granularity simulation one plan step at a
	// time, and snapshots/restores its complete decision state (apps,
	// plans, server packing, scheduler ledgers).
	VMEngine = sim.VMEngine
	// AppArrival is one application entering a streaming engine: its
	// aggregate demand plus the discrete VMs behind it.
	AppArrival = sim.AppArrival
	// ArrivalQueue is a batch of arrivals for one VMEngine.Advance, built
	// one arrival at a time by VMEngine.Enqueue.
	ArrivalQueue = sim.ArrivalQueue
	// VMStepReport is one VMEngine step's decision record (admissions,
	// evictions, moves, failures), suitable for a JSONL decision log.
	VMStepReport = sim.VMStepReport
	// VMMove is one inter-site VM migration in a VMStepReport.
	VMMove = sim.VMMove
	// SiteState is a cluster site's complete serializable state.
	SiteState = cluster.SiteState
)

// Table 1 policies.
const (
	PolicyGreedy  = core.Greedy
	PolicyMIP     = core.MIP
	PolicyMIP24h  = core.MIP24h
	PolicyMIPPeak = core.MIPPeak
)

// Fault injection (robustness experiments and chaos testing).
type (
	// FaultKind names a fault class (blackout, brownout, WAN cut, ...).
	FaultKind = fault.Kind
	// FaultEvent is one scheduled fault with a step window and severity.
	FaultEvent = fault.Event
	// FaultScript is an ordered list of fault events for one scenario.
	FaultScript = fault.Script
	// FaultInjector compiles a validated script into the per-step lookups
	// the engines query; nil is the no-fault identity.
	FaultInjector = fault.Injector
)

// Fault kinds.
const (
	FaultSiteBlackout   = fault.SiteBlackout
	FaultSiteBrownout   = fault.SiteBrownout
	FaultWANCut         = fault.WANCut
	FaultWANDegraded    = fault.WANDegraded
	FaultForecastBust   = fault.ForecastBust
	FaultSolverSlowdown = fault.SolverSlowdown
)

// NewFaultInjector validates a script against the scenario dimensions and
// compiles it. A nil or empty script yields a nil injector (and nil error),
// which reproduces fault-free runs bit-for-bit.
func NewFaultInjector(s *FaultScript, numSites, steps int) (*FaultInjector, error) {
	return fault.NewInjector(s, numSites, steps)
}

// LoadFaultScript reads a JSON fault script from disk.
func LoadFaultScript(path string) (*FaultScript, error) { return fault.LoadScript(path) }

// ParseFaultSpec parses a compact command-line fault spec such as
// "blackout:0@4-8,slow:*@0-28=8" (see internal/fault.ParseSpec).
func ParseFaultSpec(spec string) (*FaultScript, error) { return fault.ParseSpec(spec) }

// ParseFaultArg reads a -faults command-line argument: "@path" loads a
// JSON fault script file (LoadFaultScript), anything else is a compact
// spec (ParseFaultSpec).
func ParseFaultArg(arg string) (*FaultScript, error) {
	if path, ok := strings.CutPrefix(arg, "@"); ok {
		return LoadFaultScript(path)
	}
	return ParseFaultSpec(arg)
}

// WAN and economics models.
type (
	// WANConfig describes the shared wide-area fabric.
	WANConfig = wan.Config
	// CostModel captures the paper's §2.1 cost structure.
	CostModel = econ.CostModel
)

// Observability (run-scoped metrics, event tracing, run manifests).
type (
	// MetricsRegistry accumulates counters, gauges and histograms for one
	// run. A nil registry is a no-op everywhere it is accepted.
	MetricsRegistry = obs.Registry
	// Tracer records structured simulation events in a ring buffer with an
	// optional JSONL sink.
	Tracer = obs.Tracer
	// TraceEvent is one structured simulation event.
	TraceEvent = obs.Event
	// TraceEventType names a kind of TraceEvent.
	TraceEventType = obs.EventType
	// TraceStats aggregates per-event-type counts and exact totals.
	TraceStats = obs.TypeStats
	// RunManifest is the JSON summary of one observed run.
	RunManifest = obs.Manifest
	// HistogramSnapshot is an immutable histogram state.
	HistogramSnapshot = obs.HistogramSnapshot
	// MetricsSnapshot is a serializable copy of a whole registry: flat
	// metrics, dimensional vecs, and exact per-event-type totals.
	MetricsSnapshot = obs.RegistrySnapshot
	// CounterVec is a dimensional counter with an ordered label set of
	// up to three names (e.g. policy, src, dst).
	CounterVec = obs.CounterVec
	// TraceAnalysis is the offline aggregate view of a recorded event
	// stream (what cmd/vbobs prints); its per-type stats reconcile
	// bit-exactly with the live tracer's.
	TraceAnalysis = obs.TraceAnalysis
	// TraceFlowKey identifies one directed src→dst edge of the analysis's
	// migration flow matrix.
	TraceFlowKey = obs.FlowKey
	// TraceParseError locates a truncated or corrupt JSONL trace record.
	TraceParseError = obs.ParseError
)

// Trace event types emitted by the simulation pipeline.
const (
	EventPlanComputed      = obs.PlanComputed
	EventPlannedRealloc    = obs.PlannedRealloc
	EventForcedMigration   = obs.ForcedMigration
	EventStablePause       = obs.StablePause
	EventShortfall         = obs.Shortfall
	EventHorizonSwitch     = obs.HorizonSwitch
	EventMIPSolveStart     = obs.MIPSolveStart
	EventMIPSolveFinish    = obs.MIPSolveFinish
	EventVMEvicted         = obs.VMEvicted
	EventVMMoved           = obs.VMMoved
	EventVMPlacementFail   = obs.VMPlacementFail
	EventSiteStep          = obs.SiteStep
	EventFaultInjected     = obs.FaultInjected
	EventSchedulerFallback = obs.SchedulerFallback
)

// NewMetrics returns an empty run-scoped metrics registry with an attached
// event tracer.
func NewMetrics() *MetricsRegistry { return obs.NewRegistry() }

// TimeSpan starts a timing span recording into reg's histogram of the given
// name; call the returned func to stop. Nil registries cost nothing.
func TimeSpan(reg *MetricsRegistry, name string) func() { return obs.Time(reg, name) }

// ReadTraceEvents decodes a JSONL event stream written by a tracer sink.
// Truncated or corrupt trailing records return the events decoded so far
// plus a *TraceParseError locating the bad line.
func ReadTraceEvents(r io.Reader) ([]TraceEvent, error) { return obs.ReadEvents(r) }

// AnalyzeTrace aggregates a recorded event stream: per-type/app/site
// stats, the site×site migration flow matrix, exact solver percentiles,
// and solver kernel totals. On a complete stream the per-type stats
// reconcile bit-exactly with the live tracer's.
func AnalyzeTrace(events []TraceEvent) *TraceAnalysis { return obs.Analyze(events) }

// Observation is one command run's observability: the registry its
// -trace, -metrics and -listen flags ask for, the JSONL trace sink, the
// telemetry server and the manifest path. Observe opens it and Close
// finishes it.
type Observation struct {
	// Reg is the run's registry, nil when no flag asked for one.
	Reg *MetricsRegistry

	trace       *os.File
	metricsPath string
	srv         *expo.Server
}

// Observe opens the observation a command's flags ask for; an empty value
// asks for nothing. It makes a registry when any value is set. With
// listenAddr (host:port; port 0 picks a free one) it serves the registry
// over HTTP: Prometheus text at /metrics, the JSON snapshot at /snapshot,
// buffered trace events at /events and pprof under /debug/pprof/. It then
// creates tracePath and attaches it as the tracer's JSONL sink, so a
// failed listen leaves no file. Close writes the manifest to metricsPath.
func Observe(tracePath, metricsPath, listenAddr string) (*Observation, error) {
	o := &Observation{metricsPath: metricsPath}
	if tracePath == "" && metricsPath == "" && listenAddr == "" {
		return o, nil
	}
	o.Reg = NewMetrics()
	if listenAddr != "" {
		o.srv = expo.NewServer(o.Reg)
		if _, err := o.srv.Start(listenAddr); err != nil {
			return nil, err
		}
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			_ = o.srv.Shutdown(context.Background()) // the create error is the one to report
			return nil, err
		}
		o.trace = f
		o.Reg.Tracer().SetSink(f)
	}
	return o, nil
}

// Addr returns the telemetry server's bound address ("" without -listen).
func (o *Observation) Addr() string { return o.srv.Addr() }

// Close finishes the run's observation. It first surfaces both ways a JSONL
// sink loses events: a write error the tracer latched mid-run, then an
// error from closing the file (buffered data can fail to flush). Only when
// the trace is whole does it write the manifest, naming seed, policy and
// fleet. Last it stops the telemetry server, letting in-flight requests
// drain for up to 5 s, and reports a shutdown error only when nothing
// earlier failed.
func (o *Observation) Close(seed uint64, policy string, fleet []string) error {
	var err error
	if o.trace != nil {
		tracerErr, closeErr := o.Reg.Tracer().Err(), o.trace.Close()
		if tracerErr != nil {
			err = fmt.Errorf("trace sink write: %w", tracerErr)
		} else if closeErr != nil {
			err = fmt.Errorf("trace sink close: %w", closeErr)
		}
	}
	if err == nil && o.metricsPath != "" {
		m := o.Reg.Manifest()
		m.Seed, m.Policy, m.Fleet = seed, policy, fleet
		err = m.WriteFile(o.metricsPath)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if serr := o.srv.Shutdown(ctx); serr != nil && err == nil {
		err = fmt.Errorf("telemetry shutdown: %w", serr)
	}
	return err
}

// NewWorld returns an energy world drawing from seed.
func NewWorld(seed uint64) *World { return energy.NewWorld(seed) }

// NewForecaster returns a forecaster with the given seed.
func NewForecaster(seed uint64) *Forecaster { return forecast.New(seed) }

// NewSeries returns a zero-filled series.
func NewSeries(start time.Time, step time.Duration, n int) Series {
	return trace.New(start, step, n)
}

// NewCluster returns an empty, fully powered VB site.
func NewCluster(cfg ClusterConfig) (*ClusterSite, error) { return cluster.New(cfg) }

// DefaultClusterConfig returns the paper's 700x40-core site.
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// RunCluster drives a site through a power trace with the given VM
// arrivals (paper Fig 4).
func RunCluster(cfg ClusterConfig, power Series, vms []VM, warmup int) (ClusterRunResult, error) {
	return cluster.Run(cfg, power, vms, warmup)
}

// NewGraph builds the site latency graph (0 threshold = the paper's 50 ms).
func NewGraph(sites []SiteConfig, thresholdMS float64) (*Graph, error) {
	return graph.New(sites, thresholdMS)
}

// NewScheduler creates a co-scheduler over a multi-VB group.
func NewScheduler(cfg SchedulerConfig, numSites, steps int) (*Scheduler, error) {
	return core.NewScheduler(cfg, numSites, steps)
}

// RunPolicy simulates one scheduling policy over a multi-VB group.
func RunPolicy(cfg SchedulerConfig, in SimInput) (SimResult, error) { return sim.Run(cfg, in) }

// RunPolicyVMLevel simulates a policy at VM granularity: individual VMs on
// real per-site cluster simulators (packing, fragmentation, the eviction
// sweep), steered by the same co-scheduler. apps supplies the discrete
// VMs behind in.Apps, matched by application ID.
func RunPolicyVMLevel(cfg SchedulerConfig, in SimInput, apps []App, clusterCfg ClusterConfig) (VMLevelResult, error) {
	return sim.RunVMLevel(cfg, in, apps, clusterCfg)
}

// NewSimEngine builds a streaming core-level engine. Unlike RunPolicy,
// in.Apps may be empty: demands arrive through Advance.
func NewSimEngine(cfg SchedulerConfig, in SimInput) (*SimEngine, error) {
	return sim.NewEngine(cfg, in)
}

// NewVMEngine builds a streaming VM-granularity engine. Unlike
// RunPolicyVMLevel, in.Apps may be empty: applications arrive through
// Advance.
func NewVMEngine(cfg SchedulerConfig, in SimInput, clusterCfg ClusterConfig) (*VMEngine, error) {
	return sim.NewVMEngine(cfg, in, clusterCfg)
}

// RestoreVMEngine rebuilds a VM engine from a Snapshot written by
// VMEngine.Snapshot; the restored engine resumes producing bit-identical
// decisions.
func RestoreVMEngine(cfg SchedulerConfig, in SimInput, clusterCfg ClusterConfig, r io.Reader) (*VMEngine, error) {
	return sim.RestoreVMEngine(cfg, in, clusterCfg, r)
}

// AllPolicies lists the paper's four Table 1 policies.
func AllPolicies() []Policy { return core.AllPolicies() }

// ParsePolicy returns the policy named name ("Greedy", "MIP", "MIP-24h" or
// "MIP-peak").
func ParsePolicy(name string) (Policy, error) { return core.ParsePolicy(name) }

// GenerateVMs produces a synthetic Azure-like VM arrival trace.
func GenerateVMs(cfg WorkloadConfig) ([]VM, error) { return workload.Generate(cfg) }

// GenerateApps produces synthetic application requests.
func GenerateApps(cfg AppConfig) ([]App, error) { return workload.GenerateApps(cfg) }

// EuropeanTrio returns the paper's Fig 3 site trio (NO solar, UK/PT wind).
func EuropeanTrio() []SiteConfig { return energy.EuropeanTrio() }

// EuropeanFleet returns a larger mixed fleet (EMHIRES stand-in).
func EuropeanFleet(n int) []SiteConfig { return energy.EuropeanFleet(n) }

// StableVariableSplit decomposes produced energy per §2.3.
func StableVariableSplit(power Series, window time.Duration) (Split, error) {
	return energy.StableVariableSplit(power, window)
}

// LatencyMS estimates round-trip latency between two sites.
func LatencyMS(a, b SiteConfig) float64 { return energy.LatencyMS(a, b) }

// WANBusy returns the fraction of time a link of linkGbps is busy carrying
// the given per-step transfer series (GB per step).
func WANBusy(transfer Series, linkGbps float64) (float64, error) {
	return wan.BusyFraction(transfer, linkGbps)
}

// DefaultWAN returns the paper's WAN assumptions (50 Tb/s, 100 sites).
func DefaultWAN() WANConfig { return wan.DefaultConfig() }

// DefaultCostModel returns the paper's §2.1 cost figures.
func DefaultCostModel() CostModel { return econ.DefaultCostModel() }

// AddSeries returns the element-wise sum of two compatible series.
func AddSeries(a, b Series) (Series, error) { return trace.Add(a, b) }

// SumSeries returns the element-wise sum of all the given series.
func SumSeries(series ...Series) (Series, error) { return trace.Sum(series...) }

// WriteCSV writes series sharing a time base as a CSV table.
func WriteCSV(w io.Writer, names []string, series ...Series) error {
	return trace.WriteCSV(w, names, series...)
}

// ReadCSV parses a CSV table written by WriteCSV.
func ReadCSV(r io.Reader) ([]string, []Series, error) { return trace.ReadCSV(r) }

// PlotOptions controls ASCII chart geometry.
type PlotOptions = plot.Options

// PlotSeries renders a series as an ASCII line chart.
func PlotSeries(s Series, opt PlotOptions) (string, error) { return plot.Series(s, opt) }

// PlotMulti overlays up to six series in one ASCII chart.
func PlotMulti(series []Series, names []string, opt PlotOptions) (string, error) {
	return plot.Multi(series, names, opt)
}

// PlotCDFs renders named CDF point sets as one ASCII chart.
func PlotCDFs(sets map[string][]Point, opt PlotOptions) (string, error) {
	return plot.CDFs(sets, opt)
}

// NewCDF builds an empirical CDF from samples.
func NewCDF(samples []float64) (*CDF, error) { return stats.NewCDF(samples) }

// Summarize computes descriptive statistics of a sample.
func Summarize(xs []float64) (Summary, error) { return stats.Summarize(xs) }
