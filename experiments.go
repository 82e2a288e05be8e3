package vb

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/vbcloud/vb/internal/cluster"
	"github.com/vbcloud/vb/internal/energy"
	"github.com/vbcloud/vb/internal/forecast"
	"github.com/vbcloud/vb/internal/par"
	"github.com/vbcloud/vb/internal/stats"
	"github.com/vbcloud/vb/internal/trace"
	"github.com/vbcloud/vb/internal/wan"
	"github.com/vbcloud/vb/internal/workload"
)

// DefaultSeed is the seed used by the experiment runners so that every
// figure and table regenerates identically.
const DefaultSeed = 42

// experimentStart anchors all experiment timelines.
var experimentStart = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// fleetSites returns the named EuropeanFleet sites in the given order. A
// name the fleet lacks is a programming error and panics.
func fleetSites(names ...string) []SiteConfig {
	fleet := energy.EuropeanFleet(0)
	out := make([]SiteConfig, len(names))
	for i, name := range names {
		j := slices.IndexFunc(fleet, func(c SiteConfig) bool { return c.Name == name })
		if j < 0 {
			panic("vb: no fleet site " + name)
		}
		out[i] = fleet[j]
	}
	return out
}

// Fig2aResult holds the 4-day solar and wind sample of Figure 2a.
type Fig2aResult struct {
	Solar, Wind Series
	// SolarDailyPeaks are the per-day solar maxima, showing overcast vs
	// sunny days (the paper contrasts a 3.5% overcast peak with 77% the
	// following day).
	SolarDailyPeaks []float64
	// MinWind and MaxWind summarize the wind range (rarely zero).
	MinWind, MaxWind float64
}

// Fig2aPowerVariation regenerates Figure 2a: four days of normalized solar
// and wind production at 15-minute resolution.
func Fig2aPowerVariation(seed uint64) (Fig2aResult, error) {
	w := energy.NewWorld(seed)
	sites := fleetSites("BE-solar", "BE-wind")
	// A year is generated and the most illustrative 4-day window is
	// selected: the one maximizing the spread of daily solar peaks, which
	// is how the paper's May 3-7 sample was evidently chosen.
	year, err := w.Generate(sites, experimentStart, 15*time.Minute, 365*96)
	if err != nil {
		return Fig2aResult{}, err
	}
	solarYear, windYear := year[0], year[1]
	bestDay := bestSpreadWindow(solarYear, 365, 4, 96)
	res := Fig2aResult{
		Solar: solarYear.Slice(bestDay*96, (bestDay+4)*96),
		Wind:  windYear.Slice(bestDay*96, (bestDay+4)*96),
	}
	for k := 0; k < 4; k++ {
		res.SolarDailyPeaks = append(res.SolarDailyPeaks, res.Solar.Slice(k*96, (k+1)*96).Max())
	}
	res.MinWind, res.MaxWind = res.Wind.Min(), res.Wind.Max()
	return res, nil
}

// bestSpreadWindow scans every win-day window of a days-day series sampled
// spd times per day and returns the start day of the window maximizing the
// spread (max - min) of daily maxima. The loop bound d+win <= days admits
// the final window (start day days-win); an earlier version compared
// against days-1 and silently never considered it.
func bestSpreadWindow(s Series, days, win, spd int) int {
	bestDay, bestSpread := 0, -1.0
	for d := 0; d+win <= days; d++ {
		lo, hi := 2.0, -1.0
		for k := 0; k < win; k++ {
			p := s.Slice((d+k)*spd, (d+k+1)*spd).Max()
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
		if spread := hi - lo; spread > bestSpread {
			bestSpread, bestDay = spread, d
		}
	}
	return bestDay
}

// Report renders the figure as text.
func (r Fig2aResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2a: 4-day power variation (start %s)\n", r.Solar.Start.Format("2006-01-02"))
	for i, p := range r.SolarDailyPeaks {
		fmt.Fprintf(&b, "  solar day %d peak: %5.1f%% of capacity\n", i+1, p*100)
	}
	fmt.Fprintf(&b, "  wind range: %.1f%% - %.1f%% of capacity\n", r.MinWind*100, r.MaxWind*100)
	return b.String()
}

// Fig2bResult holds the one-year power CDF statistics of Figure 2b.
type Fig2bResult struct {
	SolarCDF, WindCDF []Point
	// Headline statistics the paper reads off the CDF.
	SolarZeroFraction float64 // > 0.5 (nights)
	WindMedian        float64 // <= ~0.2 of peak
	SolarP99OverP75   float64 // ~4x
	WindP99OverP75    float64 // ~2x
}

// Fig2bPowerCDF regenerates Figure 2b: the CDF of normalized power over a
// year for one solar and one wind site.
func Fig2bPowerCDF(seed uint64) (Fig2bResult, error) {
	w := energy.NewWorld(seed)
	sites := fleetSites("BE-solar", "BE-wind")
	year, err := w.Generate(sites, experimentStart, 15*time.Minute, 365*96)
	if err != nil {
		return Fig2bResult{}, err
	}
	solar, wind := year[0], year[1]
	sc, err := stats.NewCDF(solar.Values)
	if err != nil {
		return Fig2bResult{}, err
	}
	wc, err := stats.NewCDF(wind.Values)
	if err != nil {
		return Fig2bResult{}, err
	}
	sq, err := stats.Quantiles(solar.Values, 75, 99)
	if err != nil {
		return Fig2bResult{}, err
	}
	wq, err := stats.Quantiles(wind.Values, 50, 75, 99)
	if err != nil {
		return Fig2bResult{}, err
	}
	return Fig2bResult{
		SolarCDF:          sc.Points(50),
		WindCDF:           wc.Points(50),
		SolarZeroFraction: solar.FractionZero(1e-9),
		WindMedian:        wq[0],
		SolarP99OverP75:   stats.Ratio(sq[1], sq[0]),
		WindP99OverP75:    stats.Ratio(wq[2], wq[1]),
	}, nil
}

// Report renders the figure as text.
func (r Fig2bResult) Report() string {
	var b strings.Builder
	b.WriteString("Fig 2b: 1-year CDF of normalized power\n")
	fmt.Fprintf(&b, "  solar zero fraction: %.2f (paper: >0.5)\n", r.SolarZeroFraction)
	fmt.Fprintf(&b, "  wind median:         %.2f (paper: <=0.2)\n", r.WindMedian)
	fmt.Fprintf(&b, "  solar p99/p75:       %.1fx (paper: ~4x)\n", r.SolarP99OverP75)
	fmt.Fprintf(&b, "  wind p99/p75:        %.1fx (paper: ~2x)\n", r.WindP99OverP75)
	return b.String()
}

// Fig3Result holds the multi-site aggregation analysis of Figures 3a/3b.
type Fig3Result struct {
	// WindowStart is the chosen complementary 3-day window.
	WindowStart time.Time
	// Power holds the per-site MW series within the window (NO, UK, PT).
	Power []Series
	// Combos is the stable/variable breakdown of every site combination
	// (Fig 3b).
	Combos []ComboResult
	// CoVImprovementUK is cov(NO)/cov(NO+UK) — the paper reports 3.7x.
	CoVImprovementUK float64
	// CoVImprovementPT is cov(NO+UK)/cov(NO+UK+PT) — the paper reports
	// 2.3x.
	CoVImprovementPT float64
	// TopUp is the 4,000 MWh grid-purchase plan for the trio (Fig 3a's
	// shaded area): the paper stabilizes 8,000 MWh of variable energy.
	TopUp TopUp
}

// Fig3Complementary regenerates Figures 3a and 3b: complementary generation
// across the NO/UK/PT trio in the best 3-day window of a year, the
// stable/variable split of every combination, and the grid top-up plan.
func Fig3Complementary(seed uint64) (Fig3Result, error) {
	w := energy.NewWorld(seed)
	sites := energy.EuropeanTrio()
	year, err := w.GeneratePower(sites, experimentStart, time.Hour, 365*24)
	if err != nil {
		return Fig3Result{}, err
	}
	idx, _, err := energy.BestWindow(year, 72*time.Hour)
	if err != nil {
		return Fig3Result{}, err
	}
	win := make([]Series, len(year))
	for i := range year {
		win[i] = year[i].Slice(idx, idx+72)
	}
	names := []string{"NO", "UK", "PT"}
	combos, err := energy.Combinations(names, win, 72*time.Hour)
	if err != nil {
		return Fig3Result{}, err
	}
	noUK, err := trace.Add(win[0], win[1])
	if err != nil {
		return Fig3Result{}, err
	}
	all, err := trace.Add(noUK, win[2])
	if err != nil {
		return Fig3Result{}, err
	}
	topUp, err := energy.PlanTopUp(all, 4000)
	if err != nil {
		return Fig3Result{}, err
	}
	return Fig3Result{
		WindowStart:      win[0].Start,
		Power:            win,
		Combos:           combos,
		CoVImprovementUK: stats.Ratio(stats.CoV(win[0].Values), stats.CoV(noUK.Values)),
		CoVImprovementPT: stats.Ratio(stats.CoV(noUK.Values), stats.CoV(all.Values)),
		TopUp:            topUp,
	}, nil
}

// Report renders the figure as text.
func (r Fig3Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3: complementary 3-day window starting %s\n", r.WindowStart.Format("2006-01-02"))
	fmt.Fprintf(&b, "  cov improvement adding UK wind: %.1fx (paper: 3.7x)\n", r.CoVImprovementUK)
	fmt.Fprintf(&b, "  cov improvement adding PT wind: %.1fx (paper: 2.3x)\n", r.CoVImprovementPT)
	b.WriteString("  combo              stable   variable  stable%\n")
	for _, c := range r.Combos {
		fmt.Fprintf(&b, "  %-16s %8.0f %9.0f %7.0f%%\n",
			strings.Join(c.Names, "+"), c.Split.StableMWh, c.Split.VariableMWh, c.Split.StableFraction()*100)
	}
	fmt.Fprintf(&b, "  top-up: buy %.0f MWh -> stabilize %.0f MWh more (total +%.0f MWh stable)\n",
		r.TopUp.PurchasedMWh, r.TopUp.StabilizedMWh, r.TopUp.AddedStableMWh)
	return b.String()
}

// PairImprovementResult holds the §2.3 pair statistics.
type PairImprovementResult struct {
	Pairs int
	// FractionImproved is the share of pairs with a 3-day interval where
	// aggregation improves cov by >50% (paper: >52%).
	FractionImproved float64
}

// covPairIntervals and covPairWindowDays parameterize the §2.3 sweep: 24
// three-day intervals spread over one 365-day year.
const (
	covPairIntervals  = 24
	covPairWindowDays = 3
)

// covPairStartDay returns the start day of sweep interval m. The starts are
// spread evenly so interval 0 begins on day 0 and the final 72 h window ends
// exactly on day 365; the original fixed 15-day spacing stopped at day 348
// and never sampled the last ~16 days of the year.
func covPairStartDay(m int) int {
	span := 365 - covPairWindowDays
	return (m*span + (covPairIntervals-1)/2) / (covPairIntervals - 1)
}

// CovPairImprovement regenerates the §2.3 claim over the 12-site fleet and
// 24 three-day intervals across a year. The intervals are generated
// concurrently (each is an independent World.Generate call over its own
// name-keyed RNG streams); the per-pair merge runs in interval order, so
// the result is identical to the serial sweep.
func CovPairImprovement(seed uint64) (PairImprovementResult, error) {
	w := energy.NewWorld(seed)
	fleet := energy.EuropeanFleet(12)
	names := make([]string, len(fleet))
	for i := range fleet {
		names[i] = fleet[i].Name
	}
	perInterval, err := par.Map(context.Background(), covPairIntervals,
		func(m int) ([]energy.PairImprovement, error) {
			st := experimentStart.AddDate(0, 0, covPairStartDay(m))
			fp, err := w.GeneratePower(fleet, st, time.Hour, covPairWindowDays*24)
			if err != nil {
				return nil, err
			}
			return energy.AllPairs(names, fp)
		})
	if err != nil {
		return PairImprovementResult{}, err
	}
	best := map[string]float64{}
	for _, pairs := range perInterval {
		for _, p := range pairs {
			k := p.A + "/" + p.B
			if v := p.Improvement(); v > best[k] {
				best[k] = v
			}
		}
	}
	n2 := 0
	for _, v := range best {
		if v >= 2 {
			n2++
		}
	}
	return PairImprovementResult{
		Pairs:            len(best),
		FractionImproved: float64(n2) / float64(len(best)),
	}, nil
}

// Fig4Result holds one migration-overhead simulation (Figures 4a/4b).
type Fig4Result struct {
	Source Source
	Run    ClusterRunResult
	// QuietFraction is the share of power changes with no out-migration
	// (paper: >80%).
	QuietFraction float64
	// InP99OverP50 and OutP99OverP50 are the burstiness ratios of non-zero
	// transfers (paper: 18-30x in, 12.5-16x out).
	InP99OverP50, OutP99OverP50 float64
	// InCDF and OutCDF are CDFs of the non-zero transfer volumes.
	InCDF, OutCDF []Point
}

// Fig4Migration regenerates Figures 4a/4b: the migration traffic of a
// single 700-server VB site driven by `days` of power from the given
// source, with an Azure-like VM arrival trace.
func Fig4Migration(seed uint64, src Source, days int) (Fig4Result, error) {
	return Fig4MigrationObs(seed, src, days, nil)
}

// Fig4MigrationObs is Fig4Migration observed by a metrics registry: trace
// generation, the cluster run and per-step SiteStep events report into reg.
// A nil registry is free.
func Fig4MigrationObs(seed uint64, src Source, days int, reg *MetricsRegistry) (Fig4Result, error) {
	defer TimeSpan(reg, "fig4.run")()
	w := energy.NewWorld(seed)
	w.Obs = reg
	sites := fleetSites("BE-wind")
	if src == Solar {
		sites = fleetSites("BE-solar")
	}
	power, err := w.Generate(sites, experimentStart, 15*time.Minute, days*96)
	if err != nil {
		return Fig4Result{}, err
	}
	vms, err := workload.Generate(workload.Config{
		Seed:                seed,
		Start:               experimentStart.Add(-24 * time.Hour),
		Duration:            time.Duration(days+1) * 24 * time.Hour,
		MeanArrivalsPerHour: 60,
		StableFraction:      0.7,
		LongRunningFraction: 0.3,
		MedianLifetime:      6 * time.Hour,
	})
	if err != nil {
		return Fig4Result{}, err
	}
	run, err := cluster.RunObs(cluster.DefaultConfig(), power[0], vms, 96, reg)
	if err != nil {
		return Fig4Result{}, err
	}
	if reg != nil {
		reg.SetLabel("experiment", "fig4")
		reg.SetLabel("source", src.String())
		reg.SetGauge("fig4.vms", float64(len(vms)))
		reg.SetGauge("fig4.quiet_fraction", run.FractionQuietChanges())
	}
	res := Fig4Result{Source: src, Run: run, QuietFraction: run.FractionQuietChanges()}
	if nz := run.InGB.NonZero(1e-9); len(nz) > 0 {
		q, err := stats.Quantiles(nz, 50, 99)
		if err != nil {
			return Fig4Result{}, err
		}
		res.InP99OverP50 = stats.Ratio(q[1], q[0])
		c, err := stats.NewCDF(nz)
		if err != nil {
			return Fig4Result{}, err
		}
		res.InCDF = c.Points(50)
	}
	if nz := run.OutGB.NonZero(1e-9); len(nz) > 0 {
		q, err := stats.Quantiles(nz, 50, 99)
		if err != nil {
			return Fig4Result{}, err
		}
		res.OutP99OverP50 = stats.Ratio(q[1], q[0])
		c, err := stats.NewCDF(nz)
		if err != nil {
			return Fig4Result{}, err
		}
		res.OutCDF = c.Points(50)
	}
	return res, nil
}

// Report renders the figure as text.
func (r Fig4Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 4 (%v): migration overhead over %d days\n", r.Source, r.Run.Power.Len()/96)
	fmt.Fprintf(&b, "  quiet power changes: %.0f%% (paper: >80%%)\n", r.QuietFraction*100)
	fmt.Fprintf(&b, "  total out: %.0f GB, total in: %.0f GB\n", r.Run.TotalOutGB(), r.Run.TotalInGB())
	fmt.Fprintf(&b, "  out p99/p50: %.1fx (paper: 12.5-16x), in p99/p50: %.1fx (paper: 18-30x)\n",
		r.OutP99OverP50, r.InP99OverP50)
	fmt.Fprintf(&b, "  peak out: %.0f GB per 15 min\n", r.Run.OutGB.Max())
	return b.String()
}

// Fig5Result holds the forecast-accuracy table of Figure 5.
type Fig5Result struct {
	// MAPE[source][horizon] in percent.
	MAPE map[Source]map[time.Duration]float64
}

// Fig5ForecastAccuracy regenerates Figure 5: forecast error at the 3-hour,
// day and week horizons for solar and wind, over 120 days.
func Fig5ForecastAccuracy(seed uint64) (Fig5Result, error) {
	w := energy.NewWorld(seed)
	sites := fleetSites("BE-solar", "BE-wind")
	series, err := w.Generate(sites, experimentStart, 15*time.Minute, 120*96)
	if err != nil {
		return Fig5Result{}, err
	}
	// The per-(source, horizon) grid runs concurrently: Forecast derives a
	// fresh RNG stream from (seed, site, source, horizon) on every call, so
	// each cell is independent and the assembled table is deterministic.
	fc := forecast.New(seed)
	horizons := []time.Duration{Horizon3H, HorizonDay, HorizonWeek}
	cells, err := par.Map(context.Background(), len(sites)*len(horizons),
		func(c int) (float64, error) {
			i, h := c/len(horizons), horizons[c%len(horizons)]
			f, err := fc.Forecast(series[i], sites[i].Source, h, sites[i].Name)
			if err != nil {
				return 0, err
			}
			return forecast.Accuracy(f, series[i], 0.02)
		})
	if err != nil {
		return Fig5Result{}, err
	}
	out := Fig5Result{MAPE: map[Source]map[time.Duration]float64{}}
	for i, site := range sites {
		out.MAPE[site.Source] = map[time.Duration]float64{}
		for j, h := range horizons {
			out.MAPE[site.Source][h] = cells[i*len(horizons)+j]
		}
	}
	return out, nil
}

// Report renders the figure as text.
func (r Fig5Result) Report() string {
	var b strings.Builder
	b.WriteString("Fig 5: forecast MAPE by horizon\n")
	b.WriteString("  source  3h      day     week    (paper: 8.5-9%, 18-25%, 44%/75%)\n")
	for _, src := range []Source{Solar, Wind} {
		m := r.MAPE[src]
		fmt.Fprintf(&b, "  %-6s %5.1f%%  %5.1f%%  %5.1f%%\n",
			src, m[Horizon3H], m[HorizonDay], m[HorizonWeek])
	}
	return b.String()
}

// WANShareResult holds the §3 WAN share computation.
type WANShareResult struct {
	SpikeGB       float64
	Deadline      time.Duration
	RequiredGbps  float64
	PerSiteGbps   float64
	ShareConsumed float64
}

// WANShare reproduces the §3 claim: a 10 TB migration spike completed in 5
// minutes consumes ~40% of a site's share of a 50 Tb/s 100-site WAN.
func WANShare() (WANShareResult, error) {
	cfg := wan.DefaultConfig()
	const spikeGB = 10000
	deadline := 5 * time.Minute
	need, err := wan.RequiredGbps(spikeGB, deadline)
	if err != nil {
		return WANShareResult{}, err
	}
	frac, err := cfg.ShareConsumed(spikeGB, deadline)
	if err != nil {
		return WANShareResult{}, err
	}
	return WANShareResult{
		SpikeGB:       spikeGB,
		Deadline:      deadline,
		RequiredGbps:  need,
		PerSiteGbps:   cfg.PerSiteShareGbps(),
		ShareConsumed: frac,
	}, nil
}

// WANBusyResult holds the §5 busy-fraction computation.
type WANBusyResult struct {
	LinkGbps     float64
	BusyFraction float64
}

// WANBusyFraction reproduces the §5 claim: with a 200 Gb/s WAN link per VB
// site, migration traffic keeps the link busy only a few percent of the
// time (paper: 2-4%).
func WANBusyFraction(seed uint64) (WANBusyResult, error) {
	fig4, err := Fig4Migration(seed, Wind, 28)
	if err != nil {
		return WANBusyResult{}, err
	}
	total, err := trace.Add(fig4.Run.OutGB, fig4.Run.InGB)
	if err != nil {
		return WANBusyResult{}, err
	}
	frac, err := wan.BusyFraction(total, 200)
	if err != nil {
		return WANBusyResult{}, err
	}
	return WANBusyResult{LinkGbps: 200, BusyFraction: frac}, nil
}

// EconResult holds the §2.1 economics numbers.
type EconResult struct {
	// TransmissionSavingFraction of total DC cost (paper: ~10%).
	TransmissionSavingFraction float64
	// CurtailedMWh and CurtailmentValue over a year of the trio's output.
	CurtailedMWh     float64
	CurtailmentValue float64
}

// EconSavings reproduces the §2.1 cost arithmetic on a year of the trio's
// generation.
func EconSavings(seed uint64) (EconResult, error) {
	model := DefaultCostModel()
	w := energy.NewWorld(seed)
	year, err := w.GeneratePower(energy.EuropeanTrio(), experimentStart, time.Hour, 365*24)
	if err != nil {
		return EconResult{}, err
	}
	sum, err := trace.Sum(year...)
	if err != nil {
		return EconResult{}, err
	}
	mwh, value, err := model.CurtailmentValue(sum)
	if err != nil {
		return EconResult{}, err
	}
	return EconResult{
		TransmissionSavingFraction: model.TransmissionSavingFraction(),
		CurtailedMWh:               mwh,
		CurtailmentValue:           value,
	}, nil
}
