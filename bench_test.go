package vb

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation. Each prints its paper-style rows exactly once (whatever b.N
// is), then times repeated runs. Run with:
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records the paper-vs-measured comparison for each one.

var printOnce sync.Map

func printFirst(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println()
		fmt.Print(text)
	}
}

func BenchmarkFig2aPowerVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig2aPowerVariation(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig2a", r.Report())
	}
}

func BenchmarkFig2bPowerCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig2bPowerCDF(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig2b", r.Report())
	}
}

func BenchmarkFig3aComplementarySites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig3Complementary(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig3", r.Report())
	}
}

func BenchmarkFig3bStableEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig3Complementary(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		// Fig 3b is the combo table inside the Fig 3 result.
		if len(r.Combos) != 7 {
			b.Fatal("missing combos")
		}
	}
}

func BenchmarkCovPairImprovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := CovPairImprovement(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("pairs", fmt.Sprintf("§2.3: %.0f%% of %d site pairs improve cov by >50%% in some 3-day interval (paper: >52%%)\n",
			r.FractionImproved*100, r.Pairs))
	}
}

func BenchmarkFig4aMigrationTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig4Migration(DefaultSeed, Wind, 7)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig4a", r.Report())
	}
}

func BenchmarkFig4bMigrationCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var text string
		for _, src := range []Source{Solar, Wind} {
			r, err := Fig4Migration(DefaultSeed, src, 90)
			if err != nil {
				b.Fatal(err)
			}
			text += r.Report()
		}
		printFirst("fig4b", text)
	}
}

func BenchmarkFig5ForecastAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig5ForecastAccuracy(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig5", r.Report())
	}
}

func BenchmarkTable1PolicyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Table1PolicyComparison(Table1Setup{})
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table1", r.Report())
	}
}

func BenchmarkFig7PolicyCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Table1PolicyComparison(Table1Setup{})
		if err != nil {
			b.Fatal(err)
		}
		cdfs, err := Fig7CDFs(r)
		if err != nil {
			b.Fatal(err)
		}
		var text string
		text = "Fig 7: transfer CDF zero-intercepts per policy\n"
		for _, row := range r.Rows {
			text += fmt.Sprintf("  %-9s zeros=%.0f%% points=%d\n", row.Policy, row.ZeroFraction*100, len(cdfs[row.Policy]))
		}
		printFirst("fig7", text)
	}
}

func BenchmarkWANShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := WANShare()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("wanshare", fmt.Sprintf("§3: %.0f GB in %v needs %.0f Gb/s = %.0f%% of a site's %.0f Gb/s share (paper: ~40%%)\n",
			r.SpikeGB, r.Deadline, r.RequiredGbps, r.ShareConsumed*100, r.PerSiteGbps))
	}
}

func BenchmarkWANBusyFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := WANBusyFraction(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("wanbusy", fmt.Sprintf("§5: migration keeps a %.0f Gb/s site link busy %.1f%% of the time (paper: 2-4%%)\n",
			r.LinkGbps, r.BusyFraction*100))
	}
}

func BenchmarkEconSavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := EconSavings(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("econ", fmt.Sprintf("§2.1: co-location saves %.0f%% of DC cost; trio curtailment capture %.0f MWh (~$%.0f)/yr\n",
			r.TransmissionSavingFraction*100, r.CurtailedMWh, r.CurtailmentValue))
	}
}

func benchAblation(b *testing.B, key string, run func(uint64) ([]AblationResult, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rs, err := run(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		text := "Ablation " + key + ":\n"
		for _, r := range rs {
			for _, row := range r.Result.Rows {
				text += fmt.Sprintf("  %-20s %-9s total=%-8.0f p99=%-7.0f peak=%-7.0f std=%-6.0f\n",
					r.Label, row.Policy, row.Total, row.P99, row.Peak, row.Std)
			}
		}
		printFirst(key, text)
	}
}

func BenchmarkAblationHorizon(b *testing.B) {
	benchAblation(b, "horizon", AblationHorizon)
}

func BenchmarkAblationPeakWeight(b *testing.B) {
	benchAblation(b, "peakweight", AblationPeakWeight)
}

func BenchmarkAblationCliqueSize(b *testing.B) {
	benchAblation(b, "cliquesize", AblationCliqueSize)
}

func BenchmarkAblationUtilization(b *testing.B) {
	benchAblation(b, "utilization", AblationUtilization)
}

func BenchmarkAblationForecastError(b *testing.B) {
	benchAblation(b, "forecasterror", AblationForecastError)
}

// BenchmarkMIPSolve isolates the scheduler's MIP solve step: one placement
// (and its branch-and-bound site-selection solve) per iteration against
// sinusoidally varying site capacity. The obs registry's mip.solve timing
// span is reported as ns/solve, so the solver cost is separated from the
// surrounding plan bookkeeping that the overall ns/op includes.
func BenchmarkMIPSolve(b *testing.B) {
	const numSites, steps = 3, 28 // one week of 6 h plan steps
	reg := NewMetrics()
	sched, err := NewScheduler(SchedulerConfig{
		Policy:         PolicyMIP,
		PlanStep:       Table1PlanStep,
		UtilTarget:     0.7,
		MaxSitesPerApp: numSites,
		Obs:            reg,
	}, numSites, steps)
	if err != nil {
		b.Fatal(err)
	}
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	demand := AppDemand{ID: 1, Cores: 4000, StableCores: 2800, MemGBPerCore: 4, Start: start}
	var capAt CapacityFn = func(site, step int) float64 {
		return 12000 + 3000*math.Sin(float64(step+site*7)/3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := sched.Place(demand, 0, steps, capAt, capAt, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		sched.Uncommit(plan, 0)
	}
	b.StopTimer()
	if h, ok := reg.Histogram("mip.solve"); ok && h.Count > 0 {
		b.ReportMetric(h.Sum/float64(h.Count)*1e9, "ns/solve")
		b.ReportMetric(reg.Counter("mip.nodes")/float64(h.Count), "nodes/solve")
	}
}

// BenchmarkMIPSolveCold is BenchmarkMIPSolve with a fresh app ID every
// iteration. Every placement recompiles its model into the scheduler's
// solver arena in place either way, and only the arena's capacity survives
// from one placement to the next, so the two benchmarks measure the same
// path.
func BenchmarkMIPSolveCold(b *testing.B) {
	const numSites, steps = 3, 28
	reg := NewMetrics()
	sched, err := NewScheduler(SchedulerConfig{
		Policy:         PolicyMIP,
		PlanStep:       Table1PlanStep,
		UtilTarget:     0.7,
		MaxSitesPerApp: numSites,
		Obs:            reg,
	}, numSites, steps)
	if err != nil {
		b.Fatal(err)
	}
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	var capAt CapacityFn = func(site, step int) float64 {
		return 12000 + 3000*math.Sin(float64(step+site*7)/3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		demand := AppDemand{ID: i + 1, Cores: 4000, StableCores: 2800, MemGBPerCore: 4, Start: start}
		plan, err := sched.Place(demand, 0, steps, capAt, capAt, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		sched.Uncommit(plan, 0)
	}
	b.StopTimer()
	if h, ok := reg.Histogram("mip.solve"); ok && h.Count > 0 {
		b.ReportMetric(h.Sum/float64(h.Count)*1e9, "ns/solve")
		b.ReportMetric(reg.Counter("mip.nodes")/float64(h.Count), "nodes/solve")
	}
}

// BenchmarkWorldGeneration measures the raw trace-generation throughput
// (samples per second across a 3-site fleet).
func BenchmarkWorldGeneration(b *testing.B) {
	w := NewWorld(DefaultSeed)
	sites := EuropeanTrio()
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Generate(sites, start, 15*time.Minute, 30*96); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorldGenerationFleet generates the full 12-site fleet, the shape
// the experiment suite actually uses. The per-site pass fans out over
// GOMAXPROCS workers, so running with -cpu 1,4
// compares the serial and parallel paths on identical work:
//
//	go test -bench WorldGenerationFleet -cpu 1,4
func BenchmarkWorldGenerationFleet(b *testing.B) {
	w := NewWorld(DefaultSeed)
	sites := EuropeanFleet(0)
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Generate(sites, start, 15*time.Minute, 30*96); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllExperiments times the whole figure/table suite; with
// -cpu 1,4 it shows the end-to-end speedup of the parallel pipeline.
// It is expensive (~seconds per iteration) — use -benchtime=1x.
func BenchmarkRunAllExperiments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunAllExperiments(DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension benchmarks: models beyond the paper's evaluation that quantify
// arguments it makes qualitatively (see extensions.go).

func BenchmarkBatteryEquivalent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := BatteryEquivalent(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("battery", fmt.Sprintf(
			"Extension: firming %.0f MW from one site needs %.0f MWh of battery (~$%.1fB); the 3-site VB group needs %.0f MWh (%.0fx less)\n",
			r.TargetMW, r.SingleSiteBatteryMWh, r.SingleSiteCostUSD/1e9,
			r.GroupBatteryMWh, r.SingleSiteBatteryMWh/r.GroupBatteryMWh))
	}
}

func BenchmarkMigrationRealism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := MigrationRealism(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("migrealism", fmt.Sprintf(
			"Extension: pre-copy amplification %.2fx, downtime %.2fs; Table 1 totals become greedy=%.0f GB, MIP=%.0f GB\n",
			r.Amplification, r.DowntimeSec, r.AdjustedGreedyTotalGB, r.AdjustedMIPTotalGB))
	}
}

func BenchmarkReplicationVsMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := ReplicationVsMigration(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("replvsmig", fmt.Sprintf(
			"Extension: hot standby %.0f GB/week vs cold %.0f GB/week vs actual migration %.0f GB/week per app (break-even at %.0f moves/week)\n",
			r.HotStandbyGB, r.ColdStandbyGB, r.MigrationGB, r.BreakEvenMovesPerWeek))
	}
}

func BenchmarkFullPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := FullPipeline(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("pipeline", r.Report())
	}
}

func BenchmarkAblationSeason(b *testing.B) {
	benchAblation(b, "season", AblationSeason)
}

func BenchmarkFidelityVMLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fidelity(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		text := "Extension: fluid vs VM-level engine (total GB)\n"
		for _, pol := range []Policy{PolicyGreedy, PolicyMIP} {
			text += fmt.Sprintf("  %-9s fluid=%-8.0f vm-level=%-8.0f moves=%-5d frag=%.2f\n",
				pol, r.FluidGB[pol], r.VMLevelGB[pol], r.Moves[pol], r.Fragmentation[pol])
		}
		printFirst("fidelity", text)
	}
}

func BenchmarkCarbonSavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := CarbonSavings(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("carbon", fmt.Sprintf(
			"Extension: on-site consumption avoids %.0f tCO2e/yr (%.0f%% of the grid counterfactual); migration traffic adds %.1f t (%.4f%% — §5's 'negligible')\n",
			r.Savings.SavedTons, r.Savings.SavedFraction*100, r.MigrationTons, r.MigrationShare*100))
	}
}

func BenchmarkConsolidationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := ConsolidationStudy()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("consolidation", fmt.Sprintf(
			"Extension: consolidated packing draws %.0f kW vs %.0f kW spread (%.0f%% saving) at 70%% utilization\n",
			r.ConsolidatedKW, r.SpreadKW, r.SavingFraction*100))
	}
}

func BenchmarkAblationGroupSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := AblationGroupSize(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		text := "Ablation group size (sites per multi-VB group, MIP policy):\n"
		for _, r := range rs {
			row := r.Result.Rows[0]
			text += fmt.Sprintf("  %-12s total=%-8.0f p99=%-7.0f paused=%-6.0f avail=%.2f%%\n",
				r.Label, row.Total, row.P99, row.PausedStableCoreSteps, row.MeanAvailability*100)
		}
		printFirst("groupsize", text)
	}
}
