package vb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFig2aPowerVariation(t *testing.T) {
	r, err := Fig2aPowerVariation(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Solar.Len() != 4*96 || r.Wind.Len() != 4*96 {
		t.Fatalf("window lengths: solar %d wind %d", r.Solar.Len(), r.Wind.Len())
	}
	if len(r.SolarDailyPeaks) != 4 {
		t.Fatalf("daily peaks: %d", len(r.SolarDailyPeaks))
	}
	// The chosen window must contrast an overcast day with a bright day.
	lo, hi := 2.0, -1.0
	for _, p := range r.SolarDailyPeaks {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if hi < 0.5 || lo > 0.45 {
		t.Errorf("window should contrast overcast (%v) and sunny (%v) days", lo, hi)
	}
	if r.MaxWind <= r.MinWind {
		t.Error("wind should vary")
	}
	if !strings.Contains(r.Report(), "Fig 2a") {
		t.Error("Report should name the figure")
	}
}

func TestFig2bPowerCDF(t *testing.T) {
	r, err := Fig2bPowerCDF(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if r.SolarZeroFraction < 0.5 {
		t.Errorf("solar zeros = %v, want > 0.5", r.SolarZeroFraction)
	}
	if r.WindMedian > 0.25 {
		t.Errorf("wind median = %v, want <= 0.25", r.WindMedian)
	}
	if r.SolarP99OverP75 < 2.5 {
		t.Errorf("solar tail ratio = %v, want heavy (paper ~4x)", r.SolarP99OverP75)
	}
	if r.WindP99OverP75 < 1.5 || r.WindP99OverP75 > 4 {
		t.Errorf("wind tail ratio = %v, want ~2x", r.WindP99OverP75)
	}
	if len(r.SolarCDF) == 0 || len(r.WindCDF) == 0 {
		t.Error("CDF points missing")
	}
	if r.Report() == "" {
		t.Error("empty report")
	}
}

func TestFig3Complementary(t *testing.T) {
	r, err := Fig3Complementary(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Combos) != 7 {
		t.Fatalf("combos = %d, want 7", len(r.Combos))
	}
	if r.CoVImprovementUK < 1.5 {
		t.Errorf("UK improvement = %v, want substantial (paper 3.7x)", r.CoVImprovementUK)
	}
	if r.CoVImprovementPT < 1.1 {
		t.Errorf("PT improvement = %v, want further gain (paper 2.3x)", r.CoVImprovementPT)
	}
	// The trio must beat solar alone on stable fraction.
	var solo, trio float64
	for _, c := range r.Combos {
		switch len(c.Names) {
		case 1:
			if c.Names[0] == "NO" {
				solo = c.Split.StableFraction()
			}
		case 3:
			trio = c.Split.StableFraction()
		}
	}
	if trio <= solo {
		t.Errorf("trio stable fraction %v should beat solar-only %v", trio, solo)
	}
	// The top-up stabilizes more energy than it buys (paper: 4,000 MWh
	// buys 8,000 MWh of stabilization).
	if r.TopUp.StabilizedMWh <= r.TopUp.PurchasedMWh {
		t.Errorf("top-up stabilized %v <= purchased %v", r.TopUp.StabilizedMWh, r.TopUp.PurchasedMWh)
	}
	if !strings.Contains(r.Report(), "top-up") {
		t.Error("report should mention the top-up")
	}
}

func TestCovPairImprovement(t *testing.T) {
	r, err := CovPairImprovement(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pairs != 66 {
		t.Errorf("pairs = %d, want C(12,2)=66", r.Pairs)
	}
	if r.FractionImproved <= 0.52 {
		t.Errorf("improved fraction = %v, paper claims > 0.52", r.FractionImproved)
	}
}

func TestFig4Migration(t *testing.T) {
	r, err := Fig4Migration(DefaultSeed, Wind, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.QuietFraction < 0.7 {
		t.Errorf("quiet fraction = %v, want most drops absorbed (paper >0.8)", r.QuietFraction)
	}
	if r.Run.TotalOutGB() == 0 || r.Run.TotalInGB() == 0 {
		t.Error("wind power should force migrations both ways")
	}
	if r.OutP99OverP50 < 2 {
		t.Errorf("out burstiness = %v, want bursty (paper 12.5-16x)", r.OutP99OverP50)
	}
	if r.Report() == "" {
		t.Error("empty report")
	}
}

func TestFig5ForecastAccuracy(t *testing.T) {
	r, err := Fig5ForecastAccuracy(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []Source{Solar, Wind} {
		m := r.MAPE[src]
		if m[Horizon3H] >= m[HorizonDay] || m[HorizonDay] >= m[HorizonWeek] {
			t.Errorf("%v MAPE not increasing with horizon: %v", src, m)
		}
	}
	if r.MAPE[Wind][HorizonWeek] <= r.MAPE[Solar][HorizonWeek] {
		t.Error("week-ahead wind error should exceed solar (paper 75% vs 44%)")
	}
	if !strings.Contains(r.Report(), "MAPE") {
		t.Error("report should mention MAPE")
	}
}

func TestWANShare(t *testing.T) {
	r, err := WANShare()
	if err != nil {
		t.Fatal(err)
	}
	if r.PerSiteGbps != 500 {
		t.Errorf("per-site share = %v, want 500", r.PerSiteGbps)
	}
	if r.ShareConsumed < 0.35 || r.ShareConsumed > 0.6 {
		t.Errorf("share consumed = %v, paper says ~40%%", r.ShareConsumed)
	}
}

func TestWANBusyFraction(t *testing.T) {
	r, err := WANBusyFraction(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if r.BusyFraction <= 0 || r.BusyFraction > 0.1 {
		t.Errorf("busy fraction = %v, paper says 2-4%%", r.BusyFraction)
	}
}

func TestEconSavings(t *testing.T) {
	r, err := EconSavings(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if r.TransmissionSavingFraction != 0.10 {
		t.Errorf("saving = %v, want 0.10", r.TransmissionSavingFraction)
	}
	if r.CurtailedMWh <= 0 || r.CurtailmentValue <= 0 {
		t.Error("curtailment capture should be positive")
	}
}

// TestTable1PolicyComparison checks the paper's headline scheduler results
// end to end through the public API.
func TestTable1PolicyComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("full 4-policy comparison in -short mode")
	}
	r, err := Table1PolicyComparison(Table1Setup{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	greedy, ok := r.Row(PolicyGreedy)
	if !ok {
		t.Fatal("no greedy row")
	}
	mip, ok := r.Row(PolicyMIP)
	if !ok {
		t.Fatal("no MIP row")
	}
	peak, ok := r.Row(PolicyMIPPeak)
	if !ok {
		t.Fatal("no MIP-peak row")
	}
	if mip.Total > 0.7*greedy.Total {
		t.Errorf("MIP total %v vs greedy %v: want >30%% improvement", mip.Total, greedy.Total)
	}
	if peak.P99 > 0.6*greedy.P99 {
		t.Errorf("MIP-peak p99 %v vs greedy %v: want large reduction (paper 4.2x)", peak.P99, greedy.P99)
	}
	if peak.Std > 0.6*greedy.Std {
		t.Errorf("MIP-peak std %v vs greedy %v: want large reduction (paper 2.7x)", peak.Std, greedy.Std)
	}
	if peak.ZeroFraction >= mip.ZeroFraction {
		t.Error("MIP-peak should migrate more often than MIP (paper: 74% vs 94% zeros)")
	}
	cdfs, err := Fig7CDFs(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(cdfs) != 4 {
		t.Errorf("Fig7 CDFs = %d, want 4", len(cdfs))
	}
	if !strings.Contains(r.Report(), "Table 1") {
		t.Error("report should name the table")
	}
	if _, ok := r.Row(Policy(99)); ok {
		t.Error("unknown policy should not resolve")
	}
}

// TestOversizedWorkloadRefusedBeforePower requires a run too long for both
// generators' bounds to be refused by the workload's, which is checked
// before any power is generated.
func TestOversizedWorkloadRefusedBeforePower(t *testing.T) {
	_, err := Table1PolicyComparison(Table1Setup{Days: 50000, Policies: []Policy{PolicyMIP}})
	if err == nil || !strings.HasPrefix(err.Error(), "workload: ") {
		t.Fatalf("err = %v, want the workload bound's error", err)
	}
}

func TestTable1SetupDefaults(t *testing.T) {
	s := Table1Setup{}.withDefaults()
	if s.Seed != DefaultSeed || s.Days != 7 || s.AppsPerDay != 6 || len(s.Policies) != 4 {
		t.Errorf("defaults = %+v", s)
	}
}

func TestPublicConstructors(t *testing.T) {
	if NewWorld(1) == nil || NewForecaster(1) == nil {
		t.Fatal("constructors returned nil")
	}
	s := NewSeries(time.Now(), time.Hour, 4)
	if s.Len() != 4 {
		t.Error("NewSeries length")
	}
	if _, err := NewCluster(DefaultClusterConfig()); err != nil {
		t.Error(err)
	}
	if _, err := NewGraph(EuropeanTrio(), 0); err != nil {
		t.Error(err)
	}
	if len(AllPolicies()) != 4 {
		t.Error("AllPolicies")
	}
	if len(EuropeanFleet(0)) < 10 {
		t.Error("EuropeanFleet")
	}
	if LatencyMS(EuropeanTrio()[0], EuropeanTrio()[1]) <= 0 {
		t.Error("LatencyMS")
	}
	if DefaultWAN().Sites != 100 {
		t.Error("DefaultWAN")
	}
	if DefaultCostModel().PowerShareOfCost != 0.2 {
		t.Error("DefaultCostModel")
	}
	if _, err := NewCDF([]float64{1, 2}); err != nil {
		t.Error(err)
	}
	if _, err := Summarize([]float64{1, 2}); err != nil {
		t.Error(err)
	}
}

// TestFullPipeline runs the Fig 6 pipeline on the 12-site fleet: the
// cov-ranked group must be steadier than the variability-blind group and
// deliver far better availability for scheduled stable VMs.
func TestFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("two MIP runs over a fleet")
	}
	r, err := FullPipeline(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Chosen) != 3 || len(r.Naive) != 3 {
		t.Fatalf("groups: %v / %v", r.Chosen, r.Naive)
	}
	if r.ChosenCoV >= r.NaiveCoV {
		t.Errorf("ranked group cov %v should beat naive %v", r.ChosenCoV, r.NaiveCoV)
	}
	if r.ChosenPaused >= 0.5*r.NaivePaused {
		t.Errorf("ranked group paused %v should be far below naive %v (availability is what step 1 buys)",
			r.ChosenPaused, r.NaivePaused)
	}
	if r.Report() == "" {
		t.Error("empty report")
	}
}

// TestCLIParsers pins the parsers every CLI shares: each policy name
// round-trips, an unknown name is refused, and a -faults argument is a
// compact spec or, behind "@", a JSON script file.
func TestCLIParsers(t *testing.T) {
	blackout := &FaultScript{Events: []FaultEvent{{Kind: FaultSiteBlackout, Site: 1, Start: 8, End: 12}}}
	scriptPath := filepath.Join(t.TempDir(), "faults.json")
	b, err := json.Marshal(blackout)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(scriptPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	policy := func(name string) func() (string, error) {
		return func() (string, error) {
			p, err := ParsePolicy(name)
			return p.String(), err
		}
	}
	faults := func(arg string) func() (string, error) {
		return func() (string, error) {
			s, err := ParseFaultArg(arg)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%016x", s.Hash()), nil
		}
	}
	rows := []struct {
		name string
		run  func() (string, error)
		want string // empty: an error is expected
	}{
		{"policy Greedy", policy("Greedy"), "Greedy"},
		{"policy MIP", policy("MIP"), "MIP"},
		{"policy MIP-24h", policy("MIP-24h"), "MIP-24h"},
		{"policy MIP-peak", policy("MIP-peak"), "MIP-peak"},
		{"unknown policy", policy("mip"), ""},
		{"compact spec", faults("blackout:1@8-12"), fmt.Sprintf("%016x", blackout.Hash())},
		{"@file", faults("@" + scriptPath), fmt.Sprintf("%016x", blackout.Hash())},
		{"missing @file", faults("@" + scriptPath + ".missing"), ""},
		{"bad compact spec", faults("gremlins:0@1-3"), ""},
	}
	for _, r := range rows {
		got, err := r.run()
		switch {
		case r.want == "" && err == nil:
			t.Errorf("%s: accepted as %q, want an error", r.name, got)
		case r.want != "" && err != nil:
			t.Errorf("%s: %v", r.name, err)
		case r.want != "" && got != r.want:
			t.Errorf("%s: got %q, want %q", r.name, got, r.want)
		}
	}
	if len(AllPolicies()) != 4 {
		t.Fatalf("table covers 4 policies, AllPolicies has %d", len(AllPolicies()))
	}
}
