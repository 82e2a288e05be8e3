// Package sim is the multi-site simulation engine: it drives the core
// scheduler with actual power traces and forecast bundles, executes planned
// and forced migrations, and records the per-step migration traffic that the
// paper's Table 1 and Figure 7 report.
//
// The engine distinguishes three kinds of capacity events at a site:
//
//   - planned reallocation: the scheduler's plan moves an app's cores
//     between sites (traffic = moved cores x memory per core);
//   - forced migration: actual power fell below the allocation, degradable
//     cores pause for free (the paper's harvest/spot behaviour) and stable
//     cores migrate to sites with headroom;
//   - pause: stable cores with nowhere to go pause in place, which is an
//     availability violation the result records.
package sim

import (
	"sort"
	"time"

	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/fault"
	"github.com/vbcloud/vb/internal/forecast"
	"github.com/vbcloud/vb/internal/obs"
	"github.com/vbcloud/vb/internal/stats"
	"github.com/vbcloud/vb/internal/trace"
	"github.com/vbcloud/vb/internal/workload"
)

// Input bundles everything one policy run needs.
type Input struct {
	// Actual holds one normalized power series per site, all on the plan
	// timeline (same start, step = the scheduler's PlanStep).
	Actual []trace.Series
	// Bundles holds the forecast bundle per site (used by MIP policies).
	Bundles []*forecast.Bundle
	// TotalCores is the fully powered core count of each site.
	TotalCores float64
	// Apps are the application demands, sorted by Start.
	Apps []core.AppDemand
	// Obs, when non-nil, receives per-step metrics and structured events
	// (planned reallocations, forced migrations, pauses, shortfalls) from
	// the engine. A nil registry is a no-op.
	Obs *obs.Registry
	// Faults, when non-nil, injects scripted faults: site blackouts and
	// brownouts scale actual capacity, forecast busts distort predictions,
	// WAN faults cap per-step migration bandwidth, and solver slowdowns
	// derate the scheduler's node budget. A nil injector is the identity
	// and reproduces fault-free runs bit-for-bit.
	Faults *fault.Injector
}

// Validate reports input errors.
func (in Input) Validate() error {
	if len(in.Apps) == 0 {
		return errNoApps
	}
	return in.validateStreaming()
}

// Result is the outcome of one policy run.
type Result struct {
	Policy core.Policy
	// Transfer is total migration traffic per plan step, in GB.
	Transfer trace.Series
	// PerApp is total migration traffic per application, in GB.
	PerApp map[int]float64
	// PlannedGB and ForcedGB split the total into scheduler-initiated
	// reallocations and reactive power-shortfall migrations.
	PlannedGB float64
	ForcedGB  float64
	// InBySite and OutBySite break the traffic down per site: a move of X
	// GB from site a to site b adds X to OutBySite[a] and InBySite[b] at
	// that step (the per-site view of the paper's Fig 4 applied to the
	// multi-VB run). Summing either across sites reproduces Transfer.
	InBySite  []trace.Series
	OutBySite []trace.Series
	// PausedStableCoreSteps counts stable cores that had to pause
	// (availability violations) integrated over steps.
	PausedStableCoreSteps float64
	// PerAppPaused breaks the paused core-steps down by application.
	PerAppPaused map[int]float64
	// PerAppDemand is each application's total demanded stable core-steps
	// over its active window; with PerAppPaused it yields availability.
	PerAppDemand map[int]float64
	// ShortfallCoreSteps counts demanded cores the scheduler could not
	// place at all.
	ShortfallCoreSteps float64
	// Placements counts scheduler invocations (placements + replans).
	Placements int
	// Per-SLO-class accounting. Pauses, shortfalls, and demand are
	// attributed to each app's firm classes pro rata by core share; legacy
	// two-class runs record everything under workload.Stable. Absent keys
	// mean zero.
	PausedByClass    map[workload.Class]float64
	ShortfallByClass map[workload.Class]float64
	DemandByClass    map[workload.Class]float64
	// TransferByClass splits Transfer per class and step (same pro-rata
	// attribution), for per-class burst percentiles.
	TransferByClass map[workload.Class]trace.Series
}

// ClassAvailability returns the served fraction of class c's demanded
// core-steps — pauses and shortfalls both count against it — or 1 when the
// class recorded no demand.
func (r Result) ClassAvailability(c workload.Class) float64 {
	d := r.DemandByClass[c]
	if d <= 0 {
		return 1
	}
	av := 1 - (r.PausedByClass[c]+r.ShortfallByClass[c])/d
	if av < 0 {
		return 0
	}
	return av
}

// Classes lists the SLO classes with recorded demand, most critical first
// (workload.AllClasses order).
func (r Result) Classes() []workload.Class {
	var out []workload.Class
	for _, c := range workload.AllClasses {
		if r.DemandByClass[c] > 0 {
			out = append(out, c)
		}
	}
	return out
}

// Summary computes the paper's Table 1 row: total, 99th percentile, peak
// and standard deviation of per-step transfer (GB).
func (r Result) Summary() (total, p99, peak, std float64, err error) {
	s, err := stats.Summarize(r.Transfer.Values)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return s.Total, s.P99, s.Max, s.Std, nil
}

// ZeroFraction is the fraction of steps with no migration traffic (Fig 7's
// CDF intercept).
func (r Result) ZeroFraction() float64 { return r.Transfer.FractionZero(1e-9) }

// Availability returns the fraction of an application's demanded stable
// core-steps that were actually served (1 = never paused or shorted). It
// returns 1 for apps with no recorded demand.
func (r Result) Availability(appID int) float64 {
	d := r.PerAppDemand[appID]
	if d <= 0 {
		return 1
	}
	av := 1 - r.PerAppPaused[appID]/d
	if av < 0 {
		return 0
	}
	return av
}

// MeanAvailability averages Availability over all applications with
// recorded demand (1 when there are none). The sum runs in app-ID order:
// float addition is not associative, so summing in map-iteration order
// would jitter the mean by an ulp between otherwise identical runs.
func (r Result) MeanAvailability() float64 {
	if len(r.PerAppDemand) == 0 {
		return 1
	}
	ids := make([]int, 0, len(r.PerAppDemand))
	for id := range r.PerAppDemand {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var sum float64
	for _, id := range ids {
		sum += r.Availability(id)
	}
	return sum / float64(len(r.PerAppDemand))
}

// Run simulates one policy over the inputs: the batch driver feeds an
// Engine the demands in Start order and returns its accumulated result.
func Run(cfg core.Config, in Input) (Result, error) {
	eng, err := NewEngine(cfg, in)
	if err != nil {
		return Result{}, err
	}
	apps := append([]core.AppDemand(nil), in.Apps...)
	err = drive(&eng.stepper, "sim.run", apps, func(d core.AppDemand) time.Time { return d.Start },
		func(batch []core.AppDemand) error {
			_, err := eng.Advance(batch)
			return err
		})
	if err != nil {
		return Result{}, err
	}
	return eng.Result(), nil
}
