package sim

import (
	"encoding/json"
	"strconv"
	"testing"

	"github.com/vbcloud/vb/internal/cluster"
	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/fault"
	"github.com/vbcloud/vb/internal/obs"
	"github.com/vbcloud/vb/internal/workload"
)

// TestObsEventReconciliation checks the acceptance property of the event
// stream: per-type event totals must reconcile *exactly* (bit-identical
// float sums, not approximately) with the run's aggregate results, because
// the tracer accumulates them in the same order the simulation does.
func TestObsEventReconciliation(t *testing.T) {
	for _, pol := range []core.Policy{core.Greedy, core.MIP} {
		in := trioInput(t, 4, 6)
		reg := obs.NewRegistry()
		in.Obs = reg
		res, err := Run(simConfig(pol), in)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		tr := reg.Tracer()
		if got := tr.Stats(obs.ForcedMigration).GB; got != res.ForcedGB {
			t.Errorf("%v: forced event GB %v != result ForcedGB %v", pol, got, res.ForcedGB)
		}
		if got := tr.Stats(obs.PlannedRealloc).GB; got != res.PlannedGB {
			t.Errorf("%v: planned event GB %v != result PlannedGB %v", pol, got, res.PlannedGB)
		}
		if got := tr.Stats(obs.StablePause).Cores; got != res.PausedStableCoreSteps {
			t.Errorf("%v: pause event cores %v != result PausedStableCoreSteps %v", pol, got, res.PausedStableCoreSteps)
		}
		if got := tr.Stats(obs.Shortfall).Cores; got != res.ShortfallCoreSteps {
			t.Errorf("%v: shortfall event cores %v != result ShortfallCoreSteps %v", pol, got, res.ShortfallCoreSteps)
		}
		if got := tr.Stats(obs.PlanComputed).Count; got != int64(res.Placements) {
			t.Errorf("%v: plan events %d != result Placements %d", pol, got, res.Placements)
		}
		if res.Placements == 0 {
			t.Errorf("%v: run placed nothing; reconciliation is vacuous", pol)
		}
	}
	// The VM engine's stream reconciles the same way. Its plan_computed
	// events count the admissions that got a plan plus the replans, which
	// a streamed run of the same arrivals reports step by step.
	vin, apps := vmLevelFixtures(t, 3)
	for _, pol := range []core.Policy{core.Greedy, core.MIP} {
		reg := obs.NewRegistry()
		in := vin
		in.Obs = reg
		res, err := RunVMLevel(simConfig(pol), in, apps, cluster.DefaultConfig())
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		tr := reg.Tracer()
		if got := tr.Stats(obs.VMMoved).GB; got != res.Transfer.Total() {
			t.Errorf("%v: vm_moved event GB %v != result transfer %v", pol, got, res.Transfer.Total())
		}
		var evicted int
		for _, n := range res.EvictionsByClass {
			evicted += n
		}
		if got := tr.Stats(obs.VMEvicted).Count; got != int64(evicted) || evicted == 0 {
			t.Errorf("%v: vm_evicted events %d != result evictions %d (want > 0)", pol, got, evicted)
		}
		if got := tr.Stats(obs.VMPlacementFail).Count; got != int64(res.FailedPlacements) {
			t.Errorf("%v: vm_placement_failed events %d != result FailedPlacements %d", pol, got, res.FailedPlacements)
		}

		eng, err := NewVMEngine(simConfig(pol), vin, cluster.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		stable := map[int]bool{}
		for _, d := range vin.Apps {
			stable[d.ID] = d.StableCores > 0
		}
		var admissions, replans int
		for _, line := range stepReports(t, eng, vmBatchArrivals(vin, apps)) {
			var rep VMStepReport
			if err := json.Unmarshal(line, &rep); err != nil {
				t.Fatal(err)
			}
			for _, id := range rep.Admitted {
				if stable[id] {
					admissions++
				}
			}
			replans += rep.Replans
		}
		if got := tr.Stats(obs.PlanComputed).Count; got != int64(admissions+replans) || admissions == 0 {
			t.Errorf("%v: plan events %d != %d admissions with a plan + %d replans", pol, got, admissions, replans)
		}
		if a, r := reg.Counter("sim.admissions"), reg.Counter("sim.replans"); a != float64(admissions) || r != float64(replans) {
			t.Errorf("%v: sim.admissions/replans counters %v/%v, want %d/%d", pol, a, r, admissions, replans)
		}
		if n, _ := reg.Gauge("sim.sites"); n != float64(len(vin.Actual)) {
			t.Errorf("%v: sim.sites gauge = %v, want %d", pol, n, len(vin.Actual))
		}
		if n, _ := reg.Gauge("sim.steps"); n != float64(eng.Steps()) {
			t.Errorf("%v: sim.steps gauge = %v, want %d", pol, n, eng.Steps())
		}
	}
}

// TestObsRegistryViaConfig checks that attaching the registry to the
// scheduler config (rather than the input) observes the same run, and that
// timing histograms actually record.
func TestObsRegistryViaConfig(t *testing.T) {
	in := trioInput(t, 2, 6)
	reg := obs.NewRegistry()
	cfg := simConfig(core.MIP)
	cfg.Obs = reg
	res, err := Run(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Tracer().Stats(obs.PlanComputed).Count; got != int64(res.Placements) {
		t.Errorf("plan events %d != placements %d", got, res.Placements)
	}
	h, ok := reg.Histogram("sim.run")
	if !ok || h.Count != 1 {
		t.Errorf("sim.run histogram = %+v, %v; want one recorded span", h, ok)
	}
	if _, ok := reg.Histogram("mip.solve"); !ok {
		t.Error("MIP run recorded no mip.solve timings")
	}
	if n, _ := reg.Gauge("sim.steps"); n <= 0 {
		t.Errorf("sim.steps gauge = %v; want positive", n)
	}
}

// TestObsNilRegistryUnchanged checks a nil registry leaves results
// identical to an observed run (observability must never perturb the
// simulation).
func TestObsNilRegistryUnchanged(t *testing.T) {
	plain, err := Run(simConfig(core.MIP), trioInput(t, 2, 6))
	if err != nil {
		t.Fatal(err)
	}
	in := trioInput(t, 2, 6)
	in.Obs = obs.NewRegistry()
	observed, err := Run(simConfig(core.MIP), in)
	if err != nil {
		t.Fatal(err)
	}
	if plain.PlannedGB != observed.PlannedGB || plain.ForcedGB != observed.ForcedGB ||
		plain.PausedStableCoreSteps != observed.PausedStableCoreSteps ||
		plain.Placements != observed.Placements {
		t.Errorf("observed run diverged: plain=%+v observed=%+v", plain, observed)
	}
}

// TestVecLabelsAreBounded: every dimensional series the engines record is
// keyed by values from sets the run fixes up front (policies, site indices,
// SLO classes, fallback tiers, fault kinds and traffic directions), so the
// registry grows with sites and classes, never with the app stream. A live
// VM engine over several days, under a blackout and a solver slowdown, and
// a fluid run share one registry.
func TestVecLabelsAreBounded(t *testing.T) {
	reg := obs.NewRegistry()
	vin, apps := vmLevelFixtures(t, 4)
	steps := vin.Actual[0].Len()
	vin.Obs = reg
	vin.Faults = mustInjector(t, &fault.Script{Events: []fault.Event{
		{Kind: fault.SiteBlackout, Site: 1, Start: steps / 4, End: steps / 2},
		{Kind: fault.SolverSlowdown, Site: -1, Start: steps / 2, End: steps, Severity: 4096},
	}}, len(vin.Actual), steps)
	eng, err := NewVMEngine(simConfig(core.MIP24h), vin, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stepReports(t, eng, vmBatchArrivals(vin, apps))
	fin := trioInput(t, 4, 6)
	fin.Obs = reg
	if _, err := Run(simConfig(core.MIP), fin); err != nil {
		t.Fatal(err)
	}
	if len(apps) <= len(vin.Actual) || len(fin.Apps) <= len(fin.Actual) {
		t.Fatalf("%d and %d apps over %d sites: an app label could pass for a site index",
			len(apps), len(fin.Apps), len(vin.Actual))
	}

	set := func(vals ...string) map[string]bool {
		m := map[string]bool{}
		for _, v := range vals {
			m[v] = true
		}
		return m
	}
	policies, sites, classes, kinds := set(), set("none"), set(), set()
	for _, p := range core.AllPolicies() {
		policies[p.String()] = true
	}
	for i := range vin.Actual {
		sites[strconv.Itoa(i)] = true
	}
	for _, c := range workload.AllClasses {
		classes[c.String()] = true
	}
	for _, k := range []fault.Kind{fault.SiteBlackout, fault.SiteBrownout, fault.WANCut,
		fault.WANDegraded, fault.ForecastBust, fault.SolverSlowdown} {
		kinds[k.String()] = true
	}
	vocab := map[string]map[string]bool{
		"policy": policies, "site": sites, "src": sites, "dst": sites, "class": classes,
		"tier": set("rounded-lp", "greedy"), "kind": kinds, "dir": set("in", "out"),
	}

	recorded := map[string]int{}
	for name, vs := range reg.Snapshot().CounterVecs {
		for _, ln := range vs.LabelNames {
			if vocab[ln] == nil {
				t.Errorf("vec %s: label %q takes values from no bounded set", name, ln)
			}
		}
		for _, lv := range vs.Values {
			for i, v := range lv.Labels {
				if ln := vs.LabelNames[i]; vocab[ln] != nil && !vocab[ln][v] {
					t.Errorf("vec %s: %s=%q is not a known %s", name, ln, v, ln)
				}
			}
		}
		recorded[name] = len(vs.Values)
	}
	// The runs must have exercised the vecs, or the check above is vacuous.
	for _, name := range []string{"sim.planned_gb", "sim.paused_core_steps", "sim.transfer_gb_by_class",
		"vmlevel.moves_gb", "vmlevel.evicted", "vmlevel.failed_by_class", "fault.injected.by_kind",
		"scheduler.fallback.by_tier"} {
		if recorded[name] == 0 {
			t.Errorf("vec %s recorded no series", name)
		}
	}
}
