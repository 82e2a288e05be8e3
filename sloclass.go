package vb

import (
	"fmt"
	"strings"
	"time"

	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/sim"
	"github.com/vbcloud/vb/internal/stats"
	"github.com/vbcloud/vb/internal/workload"
)

// DefaultCohortSpec returns the SLO-class experiment's cohort mix: four firm
// SLO classes plus a degradable spot cohort, with one deliberately bursty
// stream — the interactive web cohort's Gamma(0.5) renewal process clumps
// arrivals far beyond Poisson, stressing the degradation ladder when a clump
// lands on a capacity dip.
func DefaultCohortSpec(seed uint64, start time.Time, days int, appsPerDay float64) TraceSpec {
	return TraceSpec{
		Version:          workload.TraceSpecVersion,
		Seed:             seed,
		Start:            start,
		DurationHours:    float64(days) * 24,
		AppsPerDay:       appsPerDay,
		DiurnalAmplitude: 0.35,
		Cohorts: []CohortSpec{
			{Name: "api", Class: "realtime", RateShare: 0.25,
				Process: workload.ProcessPoisson, SizeMix: "small", MeanVMsPerApp: 40},
			{Name: "web", Class: "interactive", RateShare: 0.30,
				Process: workload.ProcessGamma, Shape: 0.5, MeanVMsPerApp: 60},
			{Name: "analytics", Class: "batch", RateShare: 0.20,
				Process: workload.ProcessWeibull, Shape: 0.6, SizeMix: "large",
				MeanVMsPerApp: 80, MedianLifetimeHours: 24},
			{Name: "baseline", Class: "stable", RateShare: 0.15, MeanVMsPerApp: 60},
			{Name: "spot", Class: "degradable", RateShare: 0.10,
				SizeMix: "small", MeanVMsPerApp: 30},
		},
	}
}

// SLOClassSetup parameterizes the per-class availability experiment; the
// zero value is the default: the Table 1 trio, seven days, all four
// policies, DefaultCohortSpec.
type SLOClassSetup struct {
	// Seed drives all randomness (0 = DefaultSeed).
	Seed uint64
	// Days is the simulated span (0 = 7).
	Days int
	// AppsPerDay is the total application arrival rate across cohorts
	// (0 = 6, the Table 1 rate).
	AppsPerDay float64
	// Spec overrides the cohort mix (nil = DefaultCohortSpec). A non-nil
	// spec is used as given: its own seed, window and rate apply.
	Spec *TraceSpec
	// Policies restricts which policies run (nil = all four).
	Policies []Policy
	// Faults, when non-nil, injects scripted faults into every policy run.
	Faults *FaultScript
	// Obs, when non-nil, observes the runs.
	Obs *MetricsRegistry
}

// SLOClassRow is one (policy, class) cell: the class's demand, violations,
// availability and migration traffic under that policy.
type SLOClassRow struct {
	Policy Policy
	Class  WorkloadClass
	// DemandCoreSteps is the class's firm demand integrated over steps.
	DemandCoreSteps float64
	// PausedCoreSteps and ShortfallCoreSteps are the class's availability
	// violations (pro rata across multi-class apps by firm core share).
	PausedCoreSteps    float64
	ShortfallCoreSteps float64
	// Availability is 1 - (paused+shortfall)/demand, clamped to [0, 1].
	Availability float64
	// TransferGB is the class's share of migration traffic; P99GB is the
	// 99th percentile of its per-step transfer.
	TransferGB float64
	P99GB      float64
}

// SLOClassResult is the per-class policy comparison over a cohort trace.
type SLOClassResult struct {
	// Rows hold one entry per (policy, demand-bearing class), policies in
	// run order, classes in ladder order.
	Rows []SLOClassRow
	// Spec is the cohort mix the trace was generated from.
	Spec TraceSpec
	// Apps counts the generated applications.
	Apps int
}

func (s SLOClassSetup) withDefaults() SLOClassSetup {
	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	if s.Days == 0 {
		s.Days = 7
	}
	if s.AppsPerDay == 0 {
		s.AppsPerDay = 6
	}
	if s.Policies == nil {
		s.Policies = core.AllPolicies()
	}
	return s
}

// spec resolves the setup's cohort mix.
func (s SLOClassSetup) spec() TraceSpec {
	if s.Spec != nil {
		return *s.Spec
	}
	return DefaultCohortSpec(s.Seed+1, table1Start, s.Days, s.AppsPerDay)
}

// SLOClassComparison generates a cohort trace with mixed SLO classes and
// runs the Table 1 policies over it, reporting per-class availability and
// migration traffic. The degradation ladder pauses Batch before Interactive
// before RealTime, so the per-class availabilities should stratify by class
// even though every cohort shares the same sites and power.
func SLOClassComparison(setup SLOClassSetup) (SLOClassResult, error) {
	setup = setup.withDefaults()
	spec := setup.spec()
	apps, err := workload.GenerateCohorts(spec)
	if err != nil {
		return SLOClassResult{}, err
	}
	return sloClassOverApps(setup, spec, apps)
}

// SLOClassReplay runs the per-class policy comparison over a recorded
// application trace (see ReadAppTrace) instead of generating one. The power
// world is the same as SLOClassComparison's at the same seed and day count,
// so replaying a trace recorded from setup.spec() reproduces the generated
// run's rows bit for bit.
func SLOClassReplay(setup SLOClassSetup, apps []App) (SLOClassResult, error) {
	setup = setup.withDefaults()
	return sloClassOverApps(setup, setup.spec(), apps)
}

// sloClassOverApps is the shared core: the Table 1 trio's power and
// forecasts, the given applications, one run per policy, per-class rows.
func sloClassOverApps(setup SLOClassSetup, spec TraceSpec, apps []workload.App) (SLOClassResult, error) {
	ts := Table1Setup{Seed: setup.Seed, Days: setup.Days, Faults: setup.Faults, Obs: setup.Obs}
	trio := EuropeanTrio()
	hourly, err := groupPower(ts, spec.Start, trio)
	if err != nil {
		return SLOClassResult{}, err
	}
	sc, err := newScenario(ts, trio, hourly, apps)
	if err != nil {
		return SLOClassResult{}, err
	}

	res := SLOClassResult{Spec: spec, Apps: len(apps)}
	for _, pol := range setup.Policies {
		r, err := sim.Run(table1Config(ts, pol), sc.in)
		if err != nil {
			return SLOClassResult{}, fmt.Errorf("vb: slo classes, policy %v: %w", pol, err)
		}
		for _, c := range r.Classes() {
			row := SLOClassRow{
				Policy:             pol,
				Class:              c,
				DemandCoreSteps:    r.DemandByClass[c],
				PausedCoreSteps:    r.PausedByClass[c],
				ShortfallCoreSteps: r.ShortfallByClass[c],
				Availability:       r.ClassAvailability(c),
			}
			if s, ok := r.TransferByClass[c]; ok {
				sum, err := stats.Summarize(s.Values)
				if err != nil {
					return SLOClassResult{}, err
				}
				row.TransferGB = sum.Total
				row.P99GB = sum.P99
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Report renders the per-class table grouped by policy.
func (r SLOClassResult) Report() string {
	var b strings.Builder
	bursty := ""
	for _, c := range r.Spec.Cohorts {
		if c.Process == workload.ProcessGamma || c.Process == workload.ProcessWeibull {
			bursty = fmt.Sprintf(" (bursty: %s %s k=%g)", c.Name, c.Process, c.Shape)
			break
		}
	}
	fmt.Fprintf(&b, "SLO classes: per-class availability over %d cohort apps%s\n", r.Apps, bursty)
	b.WriteString("  Policy    Class        Avail%    Paused    Short     Out-GB    p99-GB\n")
	last := Policy(-1)
	for _, row := range r.Rows {
		if row.Policy != last && last != Policy(-1) {
			b.WriteString("\n")
		}
		last = row.Policy
		fmt.Fprintf(&b, "  %-9s %-12s %7.3f%% %-9.0f %-9.0f %-9.0f %-9.1f\n",
			row.Policy, row.Class, row.Availability*100,
			row.PausedCoreSteps, row.ShortfallCoreSteps, row.TransferGB, row.P99GB)
	}
	return b.String()
}
