package vb

import (
	"fmt"
	"strings"
	"time"

	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/energy"
	"github.com/vbcloud/vb/internal/forecast"
	"github.com/vbcloud/vb/internal/graph"
	"github.com/vbcloud/vb/internal/sim"
	"github.com/vbcloud/vb/internal/stats"
	"github.com/vbcloud/vb/internal/workload"
)

// Table1PlanStep is the scheduler's planning granularity in the Table 1
// experiment. The paper simulates at 15-minute power resolution; the
// co-scheduler plans at 6-hour steps over the same traces (the per-step
// power is the conservative within-step minimum).
const Table1PlanStep = 6 * time.Hour

// Table1Row is one policy's migration-overhead summary (all GB).
type Table1Row struct {
	Policy Policy
	Total  float64
	P99    float64
	Peak   float64
	Std    float64
	// ZeroFraction is the share of steps with no migration (Fig 7).
	ZeroFraction float64
	// PausedStableCoreSteps counts availability violations.
	PausedStableCoreSteps float64
	// MeanAvailability is the mean fraction of demanded stable core-steps
	// served across apps — the scheduler's goal (i).
	MeanAvailability float64
}

// Table1Result holds the full policy comparison (Table 1 + Figure 7).
type Table1Result struct {
	Rows []Table1Row
	// Transfers holds each policy's per-step transfer series (Fig 7's
	// CDFs are over these values, including zeros).
	Transfers map[Policy]Series
	// Group is the clique of sites the scheduler used.
	Group []SiteConfig
}

// Table1Setup parameterizes the scheduler comparison; the zero value is the
// paper-faithful default.
type Table1Setup struct {
	// Seed drives all randomness (0 = DefaultSeed).
	Seed uint64
	// Days is the simulated span (0 = the paper's 7).
	Days int
	// AppsPerDay is the application arrival rate (0 = 6).
	AppsPerDay float64
	// UtilTarget is the admission utilization target (0 = 0.7).
	UtilTarget float64
	// MaxSitesPerApp bounds the per-app site spread (0 = 3).
	MaxSitesPerApp int
	// PeakWeight overrides MIP-peak's O2 weight (0 = default).
	PeakWeight float64
	// LeadDependentForecasts switches from the paper's offline day-ahead
	// archive to lead-dependent (3h/day/week) forecast degradation.
	LeadDependentForecasts bool
	// Policies restricts which policies run (nil = all four).
	Policies []Policy
	// Faults, when non-nil, injects the scripted faults (site blackouts,
	// brownouts, WAN cuts, forecast busts, solver slowdowns) into every
	// policy's run. The script is validated against the experiment's
	// dimensions when the input is built; faults are part of the
	// deterministic run identity (same seed + same script = same rows).
	Faults *FaultScript
	// Obs, when non-nil, observes the run: trace generation, forecasting,
	// scheduling and simulation all report into it. Nil disables
	// observability at zero cost.
	Obs *MetricsRegistry
}

func (s Table1Setup) withDefaults() Table1Setup {
	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	if s.Days == 0 {
		s.Days = 7
	}
	if s.AppsPerDay == 0 {
		s.AppsPerDay = table1AppsPerDay
	}
	if s.Policies == nil {
		s.Policies = core.AllPolicies()
	}
	return s
}

// table1AppsPerDay is the Table 1 application arrival rate, which the
// SLO-class runs share.
const table1AppsPerDay = 6

// table1Start anchors the scheduler experiment in early May, matching the
// paper's ELIA sample period.
var table1Start = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

// scenario is one multi-VB run: the group, the scheduler's input over it,
// and the applications behind the input's demands, which the VM-level
// engine needs.
type scenario struct {
	group []SiteConfig
	in    sim.Input
	apps  []workload.App
}

// newScenario is the recipe every multi-VB experiment runs. It windows the
// group's hourly power to Table1PlanStep, forecasts each site (day-ahead
// unless s.LeadDependentForecasts), converts the apps to demands and
// compiles s.Faults. It generates neither power nor apps.
func newScenario(s Table1Setup, group []SiteConfig, hourly []Series, apps []workload.App) (scenario, error) {
	fc := forecast.New(s.Seed)
	fc.Obs = s.Obs
	in := sim.Input{
		Actual:     make([]Series, len(group)),
		Bundles:    make([]*forecast.Bundle, len(group)),
		TotalCores: float64(DefaultClusterConfig().TotalCores()),
		Obs:        s.Obs,
	}
	for i, site := range group {
		a, err := hourly[i].WindowMin(Table1PlanStep)
		if err != nil {
			return scenario{}, err
		}
		b, err := fc.NewBundle(a, site.Source, site.Name)
		if err != nil {
			return scenario{}, err
		}
		if !s.LeadDependentForecasts {
			if err := b.UseFixedHorizon(forecast.HorizonDay); err != nil {
				return scenario{}, err
			}
		}
		in.Actual[i], in.Bundles[i] = a, b
	}
	var err error
	if in.Apps, err = appDemands(apps); err != nil {
		return scenario{}, err
	}
	if s.Faults != nil {
		if in.Faults, err = NewFaultInjector(s.Faults, len(group), in.Actual[0].Len()); err != nil {
			return scenario{}, err
		}
	}
	return scenario{group: group, in: in, apps: apps}, nil
}

// groupPower generates a group's hourly power over the setup's days and
// labels each site's source in the registry.
func groupPower(s Table1Setup, start time.Time, group []SiteConfig) ([]Series, error) {
	w := energy.NewWorld(s.Seed)
	w.Obs = s.Obs
	for _, c := range group {
		s.Obs.SetLabel("site."+c.Name, c.Source.String())
	}
	return w.Generate(group, start, time.Hour, s.Days*24)
}

// table1Apps generates the Table 1 application stream: apps of 60 VMs on
// average.
func table1Apps(s Table1Setup, start time.Time) ([]workload.App, error) {
	return workload.GenerateApps(workload.AppConfig{
		Seed:           s.Seed + 1,
		Start:          start,
		Duration:       time.Duration(s.Days) * 24 * time.Hour,
		MeanAppsPerDay: s.AppsPerDay,
		MeanVMsPerApp:  60,
		StableFraction: 0.7,
	})
}

// table1Scenario builds the Table 1 scenario on a group: its own power and
// the Table 1 app stream. The group must be a clique under a generous
// continental threshold (the paper's 50 ms, relaxed to 60 ms at European
// scale).
func table1Scenario(s Table1Setup, start time.Time, group []SiteConfig) (scenario, error) {
	g, err := graph.New(group, 60)
	if err != nil {
		return scenario{}, err
	}
	cl, err := g.Cliques(len(group))
	if err != nil {
		return scenario{}, err
	}
	if len(cl) == 0 {
		return scenario{}, fmt.Errorf("vb: group is not a clique at 60 ms")
	}
	hourly, err := groupPower(s, start, group)
	if err != nil {
		return scenario{}, err
	}
	apps, err := table1Apps(s, start)
	if err != nil {
		return scenario{}, err
	}
	return newScenario(s, group, hourly, apps)
}

// Table1PolicyComparison regenerates Table 1 and the data behind Figure 7
// on the paper's trio.
func Table1PolicyComparison(setup Table1Setup) (Table1Result, error) {
	return table1At(setup.withDefaults(), table1Start, EuropeanTrio())
}

// table1At runs the policy comparison on a group with the experiment
// anchored at the given start time.
func table1At(s Table1Setup, start time.Time, group []SiteConfig) (Table1Result, error) {
	sc, err := table1Scenario(s, start, group)
	if err != nil {
		return Table1Result{}, err
	}
	return sc.table1(s)
}

// table1 runs each of the setup's policies on the scenario.
func (sc scenario) table1(s Table1Setup) (Table1Result, error) {
	res := Table1Result{Transfers: map[Policy]Series{}, Group: sc.group}
	for _, pol := range s.Policies {
		s.Obs.SetLabel("policy", pol.String())
		r, err := sim.Run(table1Config(s, pol), sc.in)
		if err != nil {
			return Table1Result{}, fmt.Errorf("vb: policy %v: %w", pol, err)
		}
		total, p99, peak, std, err := r.Summary()
		if err != nil {
			return Table1Result{}, err
		}
		res.Rows = append(res.Rows, Table1Row{
			Policy:                pol,
			Total:                 total,
			P99:                   p99,
			Peak:                  peak,
			Std:                   std,
			ZeroFraction:          r.ZeroFraction(),
			PausedStableCoreSteps: r.PausedStableCoreSteps,
			MeanAvailability:      r.MeanAvailability(),
		})
		res.Transfers[pol] = r.Transfer
	}
	return res, nil
}

// table1Config is the scheduler configuration a multi-VB run gives pol: the
// only core.Config the experiments build. Zero tuning fields select the
// scheduler's own defaults.
func table1Config(s Table1Setup, pol Policy) core.Config {
	return core.Config{
		Policy:         pol,
		PlanStep:       Table1PlanStep,
		UtilTarget:     s.UtilTarget,
		MaxSitesPerApp: s.MaxSitesPerApp,
		PeakWeight:     s.PeakWeight,
		Obs:            s.Obs,
	}
}

// Row returns the row for a policy, or false.
func (r Table1Result) Row(p Policy) (Table1Row, bool) {
	for _, row := range r.Rows {
		if row.Policy == p {
			return row, true
		}
	}
	return Table1Row{}, false
}

// Report renders the table as text in the paper's layout.
func (r Table1Result) Report() string {
	var b strings.Builder
	b.WriteString("Table 1: migration overhead (GB) by scheduling policy\n")
	b.WriteString("  Policy    Total     99%ile    Peak      Std      Zero%  Avail%\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s %-9.0f %-9.0f %-9.0f %-8.0f %3.0f%%  %6.2f%%\n",
			row.Policy, row.Total, row.P99, row.Peak, row.Std, row.ZeroFraction*100, row.MeanAvailability*100)
	}
	return b.String()
}

// Fig7CDFs converts the Table 1 transfer series into per-policy CDF points
// over all steps (including zeros), as in Figure 7.
func Fig7CDFs(t Table1Result) (map[Policy][]Point, error) {
	out := map[Policy][]Point{}
	for pol, series := range t.Transfers {
		c, err := stats.NewCDF(series.Values)
		if err != nil {
			return nil, err
		}
		out[pol] = c.Points(60)
	}
	return out, nil
}

// AblationResult is one (label, Table1Result) pair from a parameter sweep.
type AblationResult struct {
	Label  string
	Result Table1Result
}

// AblationCliqueSize sweeps the per-app site spread k (the paper considers
// k = 2..5; our group has three sites, so k = 1..3).
func AblationCliqueSize(seed uint64) ([]AblationResult, error) {
	var out []AblationResult
	for k := 1; k <= 3; k++ {
		res, err := Table1PolicyComparison(Table1Setup{
			Seed:           seed,
			MaxSitesPerApp: k,
			Policies:       []Policy{PolicyMIP},
		})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Label: fmt.Sprintf("k=%d", k), Result: res})
	}
	return out, nil
}

// AblationPeakWeight sweeps MIP-peak's O2 weight.
func AblationPeakWeight(seed uint64) ([]AblationResult, error) {
	var out []AblationResult
	for _, w := range []float64{1, 4, 8, 16} {
		res, err := Table1PolicyComparison(Table1Setup{
			Seed:       seed,
			PeakWeight: w,
			Policies:   []Policy{PolicyMIPPeak},
		})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Label: fmt.Sprintf("w=%g", w), Result: res})
	}
	return out, nil
}

// AblationUtilization sweeps the admission-control utilization target.
func AblationUtilization(seed uint64) ([]AblationResult, error) {
	var out []AblationResult
	for _, u := range []float64{0.5, 0.7, 0.9} {
		res, err := Table1PolicyComparison(Table1Setup{
			Seed:       seed,
			UtilTarget: u,
			Policies:   []Policy{PolicyGreedy, PolicyMIP},
		})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Label: fmt.Sprintf("util=%g", u), Result: res})
	}
	return out, nil
}

// AblationSeason runs the Greedy-vs-MIP comparison in different seasons:
// winter (strong wind, weak solar), spring, and summer (strong solar,
// weaker wind). The multi-VB tradeoffs shift with the resource mix.
func AblationSeason(seed uint64) ([]AblationResult, error) {
	seasons := []struct {
		label string
		start time.Time
	}{
		{"winter (Jan)", time.Date(2020, 1, 10, 0, 0, 0, 0, time.UTC)},
		{"spring (May)", time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)},
		{"summer (Jul)", time.Date(2020, 7, 10, 0, 0, 0, 0, time.UTC)},
	}
	var out []AblationResult
	for _, season := range seasons {
		res, err := table1At(Table1Setup{
			Seed:     seed,
			Policies: []Policy{PolicyGreedy, PolicyMIP},
		}.withDefaults(), season.start, EuropeanTrio())
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Label: season.label, Result: res})
	}
	return out, nil
}

// AblationForecastError contrasts the offline day-ahead archive (the
// paper's setting) with lead-dependent forecast degradation.
func AblationForecastError(seed uint64) ([]AblationResult, error) {
	var out []AblationResult
	for _, lead := range []bool{false, true} {
		label := "day-ahead archive"
		if lead {
			label = "lead-dependent"
		}
		res, err := Table1PolicyComparison(Table1Setup{
			Seed:                   seed,
			LeadDependentForecasts: lead,
			Policies:               []Policy{PolicyMIP},
		})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Label: label, Result: res})
	}
	return out, nil
}

// AblationHorizon contrasts the rolling 24 h lookahead with the full-period
// horizon (the MIP vs MIP-24h axis) and the greedy baseline.
func AblationHorizon(seed uint64) ([]AblationResult, error) {
	res, err := Table1PolicyComparison(Table1Setup{
		Seed:     seed,
		Policies: []Policy{PolicyGreedy, PolicyMIP24h, PolicyMIP},
	})
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for _, row := range res.Rows {
		single := Table1Result{Rows: []Table1Row{row}, Transfers: map[Policy]Series{row.Policy: res.Transfers[row.Policy]}, Group: res.Group}
		out = append(out, AblationResult{Label: row.Policy.String(), Result: single})
	}
	return out, nil
}

// AblationGroupSize sweeps the multi-VB group size (the paper's k = 2..5):
// larger groups give the scheduler more complementary capacity (higher
// availability) at the cost of more inter-site traffic — the §3.1 tradeoff.
func AblationGroupSize(seed uint64) ([]AblationResult, error) {
	// Groups grown around the UK/BE corner: wind + solar mixes.
	groups := [][]SiteConfig{
		fleetSites("UK-wind", "BE-solar"),
		EuropeanTrio(),
		fleetSites("UK-wind", "BE-solar", "BE-wind", "FR-wind"),
		fleetSites("UK-wind", "BE-solar", "BE-wind", "DE-wind", "FR-wind"),
	}
	var out []AblationResult
	for _, group := range groups {
		k := len(group)
		res, err := table1At(Table1Setup{
			Seed:           seed,
			MaxSitesPerApp: k,
			Policies:       []Policy{PolicyMIP},
		}.withDefaults(), table1Start, group)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Label: fmt.Sprintf("group k=%d", k), Result: res})
	}
	return out, nil
}
