package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/cluster"
	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/energy"
	"github.com/vbcloud/vb/internal/forecast"
	"github.com/vbcloud/vb/internal/trace"
	"github.com/vbcloud/vb/internal/workload"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

const planStep = 6 * time.Hour

// trioInput builds a 7-day three-site input with realistic power and
// forecasts plus a synthetic app mix. Shared across tests.
func trioInput(t *testing.T, days int, appsPerDay float64) Input {
	t.Helper()
	w := energy.NewWorld(42)
	cfgs := energy.EuropeanTrio()
	fine, err := w.Generate(cfgs, t0, time.Hour, days*24)
	if err != nil {
		t.Fatal(err)
	}
	fc := forecast.New(7)
	actual := make([]trace.Series, len(cfgs))
	bundles := make([]*forecast.Bundle, len(cfgs))
	for i := range cfgs {
		a, err := fine[i].WindowMin(planStep)
		if err != nil {
			t.Fatal(err)
		}
		actual[i] = a
		bundles[i], err = fc.NewBundle(a, cfgs[i].Source, cfgs[i].Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := bundles[i].UseFixedHorizon(forecast.HorizonDay); err != nil {
			t.Fatal(err)
		}
	}
	apps, err := workload.GenerateApps(workload.AppConfig{
		Seed:           11,
		Start:          t0,
		Duration:       time.Duration(days) * 24 * time.Hour,
		MeanAppsPerDay: appsPerDay,
		MeanVMsPerApp:  60,
		StableFraction: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	demands := make([]core.AppDemand, 0, len(apps))
	for _, a := range apps {
		demands = append(demands, core.AppDemand{
			ID:           a.ID,
			Cores:        float64(a.TotalCores()),
			StableCores:  float64(a.StableCores()),
			MemGBPerCore: float64(a.TotalMemoryGB()) / float64(a.TotalCores()),
			Start:        a.Arrival,
		})
	}
	return Input{Actual: actual, Bundles: bundles, TotalCores: 28000, Apps: demands}
}

func simConfig(p core.Policy) core.Config {
	return core.Config{Policy: p, PlanStep: planStep, UtilTarget: 0.7, MaxSitesPerApp: 3}
}

func TestInputValidate(t *testing.T) {
	good := trioInput(t, 2, 4)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	bad := good
	bad.Actual = nil
	if err := bad.Validate(); err == nil {
		t.Error("no sites should error")
	}
	bad = good
	bad.Bundles = bad.Bundles[:1]
	if err := bad.Validate(); err == nil {
		t.Error("bundle mismatch should error")
	}
	bad = good
	bad.TotalCores = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero cores should error")
	}
	bad = good
	bad.Actual = append([]trace.Series(nil), good.Actual...)
	bad.Actual[1] = bad.Actual[1].Slice(0, 2)
	if err := bad.Validate(); err == nil {
		t.Error("length mismatch should error")
	}
	bad = good
	bad.Apps = []core.AppDemand{{}}
	if err := bad.Validate(); err == nil {
		t.Error("invalid app should error")
	}
	bad = good
	bad.Apps = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty app list should error")
	} else if !strings.Contains(err.Error(), "no applications") {
		t.Errorf("empty app list error %q should mention no applications", err)
	}
	// A power sample that is not finite and non-negative is refused, with
	// its site and step, by Validate and by both engine constructors.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.25} {
		bad = good
		bad.Actual = append([]trace.Series(nil), good.Actual...)
		bad.Actual[1].Values = append([]float64(nil), good.Actual[1].Values...)
		bad.Actual[1].Values[3] = v
		errs := map[string]error{"Validate": bad.Validate()}
		_, errs["NewEngine"] = NewEngine(simConfig(core.MIP), bad)
		_, errs["NewVMEngine"] = NewVMEngine(simConfig(core.MIP), bad, cluster.DefaultConfig())
		for name, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "site 1 power at step 3") {
				t.Errorf("%s with power %v: error %v, want one naming site 1 and step 3", name, v, err)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	in := trioInput(t, 2, 4)
	if _, err := Run(core.Config{}, in); err == nil {
		t.Error("bad config should error")
	}
	cfg := simConfig(core.MIP)
	cfg.PlanStep = time.Hour // mismatches power step
	if _, err := Run(cfg, in); err == nil {
		t.Error("plan step mismatch should error")
	}
	bad := in
	bad.Actual = nil
	if _, err := Run(simConfig(core.MIP), bad); err == nil {
		t.Error("invalid input should error")
	}
}

func TestRunDeterministic(t *testing.T) {
	in := trioInput(t, 3, 4)
	a, err := Run(simConfig(core.MIP), in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(simConfig(core.MIP), in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Transfer.Values {
		if a.Transfer.Values[i] != b.Transfer.Values[i] {
			t.Fatalf("step %d differs across identical runs", i)
		}
	}
}

func TestRunConstantPowerNoTraffic(t *testing.T) {
	in := trioInput(t, 3, 4)
	// Replace power with constant full output; forecasts of a constant are
	// noisy but the *actual* capacity never drops, and plans on constant
	// capacity never move.
	for i := range in.Actual {
		cs := trace.New(in.Actual[i].Start, in.Actual[i].Step, in.Actual[i].Len())
		for j := range cs.Values {
			cs.Values[j] = 1
		}
		in.Actual[i] = cs
		b, err := forecast.New(3).NewBundle(cs, energy.Wind, "const")
		if err != nil {
			t.Fatal(err)
		}
		if err := b.UseFixedHorizon(forecast.HorizonDay); err != nil {
			t.Fatal(err)
		}
		in.Bundles[i] = b
	}
	res, err := Run(simConfig(core.MIP), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.ForcedGB != 0 {
		t.Errorf("constant power forced %v GB", res.ForcedGB)
	}
	if res.PausedStableCoreSteps != 0 {
		t.Errorf("constant power paused %v core-steps", res.PausedStableCoreSteps)
	}
}

// TestTable1Shape verifies the paper's Table 1 orderings on a 7-day run:
// MIP beats Greedy on total migration overhead by >30%, the MIP variants
// land within ~15% of each other, and MIP-peak has the lowest p99, peak and
// standard deviation while migrating most often (lowest zero fraction).
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("7-day 4-policy run in -short mode")
	}
	in := trioInput(t, 7, 6)
	results := map[core.Policy]Result{}
	for _, pol := range core.AllPolicies() {
		res, err := Run(simConfig(pol), in)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		results[pol] = res
	}
	gTot, gP99, _, gStd, err := results[core.Greedy].Summary()
	if err != nil {
		t.Fatal(err)
	}
	mTot, _, _, _, err := results[core.MIP].Summary()
	if err != nil {
		t.Fatal(err)
	}
	pTot, pP99, _, pStd, err := results[core.MIPPeak].Summary()
	if err != nil {
		t.Fatal(err)
	}
	hTot, _, _, _, err := results[core.MIP24h].Summary()
	if err != nil {
		t.Fatal(err)
	}

	if mTot > 0.7*gTot {
		t.Errorf("MIP total %v vs greedy %v: want >30%% improvement", mTot, gTot)
	}
	// MIP variants within 25% of each other (paper: 1-12.5%).
	lo, hi := mTot, mTot
	for _, v := range []float64{pTot, hTot} {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > 1.4*lo {
		t.Errorf("MIP variants spread too wide: [%v, %v]", lo, hi)
	}
	// MIP-peak: much lower p99 and std than greedy (paper: 4.2x and 2.7x).
	if pP99 > 0.6*gP99 {
		t.Errorf("MIP-peak p99 %v vs greedy %v: want large reduction", pP99, gP99)
	}
	if pStd > 0.6*gStd {
		t.Errorf("MIP-peak std %v vs greedy %v: want large reduction", pStd, gStd)
	}
	// MIP-peak migrates most often (lowest zero fraction, paper 74% vs 81%
	// greedy / 94% MIP).
	if results[core.MIPPeak].ZeroFraction() >= results[core.Greedy].ZeroFraction() {
		t.Errorf("MIP-peak zeros %v should be below greedy %v",
			results[core.MIPPeak].ZeroFraction(), results[core.Greedy].ZeroFraction())
	}
	if results[core.MIPPeak].ZeroFraction() >= results[core.MIP].ZeroFraction() {
		t.Errorf("MIP-peak zeros %v should be below MIP %v",
			results[core.MIPPeak].ZeroFraction(), results[core.MIP].ZeroFraction())
	}
	// Availability: MIP policies must not pause more stable cores than
	// greedy does.
	if results[core.MIP].PausedStableCoreSteps > results[core.Greedy].PausedStableCoreSteps+1e-6 {
		t.Errorf("MIP pauses more than greedy: %v vs %v",
			results[core.MIP].PausedStableCoreSteps, results[core.Greedy].PausedStableCoreSteps)
	}
}

func TestGreedyHasNoPlannedTraffic(t *testing.T) {
	in := trioInput(t, 4, 5)
	res, err := Run(simConfig(core.Greedy), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlannedGB != 0 {
		t.Errorf("greedy planned traffic = %v, want 0 (purely reactive)", res.PlannedGB)
	}
	if res.ForcedGB == 0 {
		t.Error("a week of renewables should force some greedy migrations")
	}
}

func TestSummaryAndZeroFraction(t *testing.T) {
	r := Result{Transfer: trace.FromValues(t0, planStep, []float64{0, 10, 0, 30})}
	total, p99, peak, std, err := r.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if total != 40 || peak != 30 {
		t.Errorf("total=%v peak=%v", total, peak)
	}
	if p99 <= 0 || std <= 0 {
		t.Errorf("p99=%v std=%v", p99, std)
	}
	if r.ZeroFraction() != 0.5 {
		t.Errorf("ZeroFraction = %v", r.ZeroFraction())
	}
	var empty Result
	if _, _, _, _, err := empty.Summary(); err == nil {
		t.Error("empty result Summary should error")
	}
}

// TestPerSiteBreakdownConsistent checks that the per-site in/out series
// both sum to the total transfer (each move is counted once on each side).
func TestPerSiteBreakdownConsistent(t *testing.T) {
	in := trioInput(t, 4, 5)
	for _, pol := range []core.Policy{core.Greedy, core.MIP24h} {
		res, err := Run(simConfig(pol), in)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.InBySite) != len(in.Actual) || len(res.OutBySite) != len(in.Actual) {
			t.Fatalf("%v: per-site series missing", pol)
		}
		for step := 0; step < res.Transfer.Len(); step++ {
			var inSum, outSum float64
			for s := range res.InBySite {
				inSum += res.InBySite[s].Values[step]
				outSum += res.OutBySite[s].Values[step]
			}
			if diff := inSum - res.Transfer.Values[step]; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("%v step %d: in sum %v != transfer %v", pol, step, inSum, res.Transfer.Values[step])
			}
			if diff := outSum - res.Transfer.Values[step]; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("%v step %d: out sum %v != transfer %v", pol, step, outSum, res.Transfer.Values[step])
			}
		}
	}
}

// TestAvailabilityAccounting checks per-app availability bookkeeping.
func TestAvailabilityAccounting(t *testing.T) {
	in := trioInput(t, 4, 5)
	res, err := Run(simConfig(core.MIP), in)
	if err != nil {
		t.Fatal(err)
	}
	av := res.MeanAvailability()
	if av < 0.5 || av > 1 {
		t.Fatalf("mean availability = %v, want high", av)
	}
	for id, d := range res.PerAppDemand {
		if d <= 0 {
			t.Fatalf("app %d demand %v", id, d)
		}
		a := res.Availability(id)
		if a < 0 || a > 1 {
			t.Fatalf("app %d availability %v outside [0,1]", id, a)
		}
	}
	// Unknown app: trivially available.
	if res.Availability(-1) != 1 {
		t.Error("unknown app should report availability 1")
	}
	var empty Result
	if empty.MeanAvailability() != 1 {
		t.Error("empty result should report availability 1")
	}
}
