package sim

import (
	"bytes"
	"testing"

	"github.com/vbcloud/vb/internal/cluster"
	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/fault"
	"github.com/vbcloud/vb/internal/obs"
)

func mustInjector(t *testing.T, s *fault.Script, sites, steps int) *fault.Injector {
	t.Helper()
	inj, err := fault.NewInjector(s, sites, steps)
	if err != nil {
		t.Fatal(err)
	}
	if inj == nil {
		t.Fatal("non-empty script compiled to nil injector")
	}
	return inj
}

// requireSameRun asserts two results are bit-identical in every decision-
// bearing field — the fault machinery's zero-effect identity contract.
func requireSameRun(t *testing.T, want, got Result) {
	t.Helper()
	for i := range want.Transfer.Values {
		if want.Transfer.Values[i] != got.Transfer.Values[i] {
			t.Fatalf("transfer[%d]: %v != %v", i, want.Transfer.Values[i], got.Transfer.Values[i])
		}
	}
	if want.PlannedGB != got.PlannedGB || want.ForcedGB != got.ForcedGB {
		t.Fatalf("planned/forced split differs: (%v,%v) != (%v,%v)",
			want.PlannedGB, want.ForcedGB, got.PlannedGB, got.ForcedGB)
	}
	if want.PausedStableCoreSteps != got.PausedStableCoreSteps {
		t.Fatalf("paused core-steps differ: %v != %v", want.PausedStableCoreSteps, got.PausedStableCoreSteps)
	}
	if want.ShortfallCoreSteps != got.ShortfallCoreSteps {
		t.Fatalf("shortfall core-steps differ: %v != %v", want.ShortfallCoreSteps, got.ShortfallCoreSteps)
	}
}

// TestZeroFaultRunReproducesSeed pins the golden-parity acceptance
// criterion: faults disabled (nil injector, which is what an empty script
// compiles to) and faults present-but-inert (slowdown factor 1, WAN budget
// far above any step's traffic) both reproduce the seed run bit-for-bit.
func TestZeroFaultRunReproducesSeed(t *testing.T) {
	in := trioInput(t, 3, 4)
	steps := in.Actual[0].Len()
	seed, err := Run(simConfig(core.MIP), in)
	if err != nil {
		t.Fatal(err)
	}

	// An empty script is the no-fault identity: it compiles to nil.
	if inj, err := fault.NewInjector(&fault.Script{}, len(in.Actual), steps); err != nil || inj != nil {
		t.Fatalf("empty script: injector=%v err=%v, want nil/nil", inj, err)
	}

	// Inert faults exercise every fault hook (cap factor, forecast factor,
	// solver derate, WAN clamp) with values that must be exact identities.
	inert := &fault.Script{Events: []fault.Event{
		{Kind: fault.SolverSlowdown, Site: -1, Start: 0, End: steps, Severity: 1},
		{Kind: fault.WANDegraded, Site: -1, Peer: -1, Start: 0, End: steps, Severity: 1e12},
	}}
	faulted := in
	faulted.Faults = mustInjector(t, inert, len(in.Actual), steps)
	got, err := Run(simConfig(core.MIP), faulted)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, seed, got)
}

// TestBlackoutDegradesServiceAndCounts blacks out one site mid-run: the
// engine must record strictly more disruption (forced traffic, pauses, or
// shortfall) than the fault-free run, and the obs layer must see the
// injection.
func TestBlackoutDegradesServiceAndCounts(t *testing.T) {
	in := trioInput(t, 4, 5)
	steps := in.Actual[0].Len()
	seed, err := Run(simConfig(core.MIP), in)
	if err != nil {
		t.Fatal(err)
	}

	// Site 1 carries MIP load in this window (site 0 is dark there anyway,
	// so blacking it out would be a no-op).
	reg := obs.NewRegistry()
	script := &fault.Script{Events: []fault.Event{
		{Kind: fault.SiteBlackout, Site: 1, Start: steps / 4, End: steps / 2},
	}}
	faulted := in
	faulted.Obs = reg
	faulted.Faults = mustInjector(t, script, len(in.Actual), steps)
	got, err := Run(simConfig(core.MIP), faulted)
	if err != nil {
		t.Fatal(err)
	}

	seedBad := seed.ForcedGB + seed.PausedStableCoreSteps + seed.ShortfallCoreSteps
	gotBad := got.ForcedGB + got.PausedStableCoreSteps + got.ShortfallCoreSteps
	if gotBad <= seedBad {
		t.Errorf("blackout disruption %v not above fault-free %v", gotBad, seedBad)
	}
	if got.ShortfallCoreSteps <= seed.ShortfallCoreSteps {
		t.Errorf("blackout shortfall %v not above fault-free %v",
			got.ShortfallCoreSteps, seed.ShortfallCoreSteps)
	}
	if c := reg.Counter("fault.injected.count"); c != 1 {
		t.Errorf("fault.injected.count = %v, want 1", c)
	}
	vec := reg.NewCounterVec("fault.injected.by_kind", "kind")
	if c := vec.Value("site_blackout"); c != 1 {
		t.Errorf("fault.injected.by_kind[site_blackout] = %v, want 1", c)
	}
	if c := reg.Tracer().Stats(obs.FaultInjected).Count; c != 1 {
		t.Errorf("FaultInjected events = %d, want 1", c)
	}
}

// TestWANCutStopsAllTraffic cuts every inter-site link for the whole run:
// no migration traffic can flow, so stable cores that lose power must pause
// in place instead of moving.
func TestWANCutStopsAllTraffic(t *testing.T) {
	in := trioInput(t, 4, 5)
	steps := in.Actual[0].Len()
	seed, err := Run(simConfig(core.MIP), in)
	if err != nil {
		t.Fatal(err)
	}
	if seed.Transfer.Total() == 0 {
		t.Fatal("fixture moved no traffic; WAN-cut test is vacuous")
	}

	script := &fault.Script{Events: []fault.Event{
		{Kind: fault.WANCut, Site: -1, Peer: -1, Start: 0, End: steps},
	}}
	faulted := in
	faulted.Faults = mustInjector(t, script, len(in.Actual), steps)
	got, err := Run(simConfig(core.MIP), faulted)
	if err != nil {
		t.Fatal(err)
	}
	if total := got.Transfer.Total(); total != 0 {
		t.Errorf("full WAN cut still moved %v GB", total)
	}
	if got.PausedStableCoreSteps < seed.PausedStableCoreSteps {
		t.Errorf("WAN cut paused %v core-steps, want >= fault-free %v",
			got.PausedStableCoreSteps, seed.PausedStableCoreSteps)
	}
}

// TestFaultedRunDeterministic pins the determinism contract under faults:
// the same seed and the same script must yield bit-identical decisions on
// every run, because fault effects are pure functions of (script, step) —
// latency faults derate node budgets rather than racing wall clocks.
func TestFaultedRunDeterministic(t *testing.T) {
	in := trioInput(t, 4, 5)
	steps := in.Actual[0].Len()
	script := &fault.Script{Events: []fault.Event{
		{Kind: fault.SiteBrownout, Site: 1, Start: 2, End: steps / 2, Severity: 0.5},
		{Kind: fault.SolverSlowdown, Site: -1, Start: 0, End: steps, Severity: 64},
		{Kind: fault.WANDegraded, Site: 0, Peer: 2, Start: steps / 4, End: steps, Severity: 50},
		{Kind: fault.ForecastBust, Site: 2, Start: steps / 2, End: steps, Severity: 0.6},
	}}

	var runs []Result
	for run := 0; run < 2; run++ {
		faulted := in
		faulted.Faults = mustInjector(t, script, len(in.Actual), steps)
		res, err := Run(simConfig(core.MIP), faulted)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		runs = append(runs, res)
	}
	requireSameRun(t, runs[0], runs[1])
}

// TestSnapshotRejectsDifferentFaultScript: a VM-engine snapshot taken under
// one fault timeline must not restore into an engine running another — the
// replayed decisions would silently diverge.
func TestSnapshotRejectsDifferentFaultScript(t *testing.T) {
	in, apps := vmLevelFixtures(t, 2)
	steps := in.Actual[0].Len()
	cfg := simConfig(core.MIP)
	ccfg := cluster.DefaultConfig()

	scriptA := &fault.Script{Events: []fault.Event{
		{Kind: fault.SiteBrownout, Site: 0, Start: 1, End: 3, Severity: 0.4},
	}}
	inA := in
	inA.Faults = mustInjector(t, scriptA, len(in.Actual), steps)
	eng, err := NewVMEngine(cfg, inA, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := vmBatchArrivals(in, apps)
	sortArrivals(arrivals)
	if _, err := eng.Advance(arrivals); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := eng.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	// Same script restores fine.
	if _, err := RestoreVMEngine(cfg, inA, ccfg, bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("same-script restore failed: %v", err)
	}
	// No script: rejected.
	if _, err := RestoreVMEngine(cfg, in, ccfg, bytes.NewReader(snap.Bytes())); err == nil {
		t.Error("restore without the fault script should be rejected")
	}
	// Different script: rejected.
	scriptB := &fault.Script{Events: []fault.Event{
		{Kind: fault.SiteBrownout, Site: 0, Start: 1, End: 3, Severity: 0.5},
	}}
	inB := in
	inB.Faults = mustInjector(t, scriptB, len(in.Actual), steps)
	if _, err := RestoreVMEngine(cfg, inB, ccfg, bytes.NewReader(snap.Bytes())); err == nil {
		t.Error("restore under a different fault script should be rejected")
	}
}

// TestVMEngineWANCutBlocksReconcile runs the VM engine under a full WAN cut
// and checks no reconcile move crosses a link (rehomes of evicted VMs are
// storage relaunches and stay allowed).
func TestVMEngineWANCutBlocksReconcile(t *testing.T) {
	in, apps := vmLevelFixtures(t, 3)
	steps := in.Actual[0].Len()
	script := &fault.Script{Events: []fault.Event{
		{Kind: fault.WANCut, Site: -1, Peer: -1, Start: 0, End: steps},
	}}
	faulted := in
	faulted.Faults = mustInjector(t, script, len(in.Actual), steps)
	eng, err := NewVMEngine(simConfig(core.MIP), faulted, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range stepReports(t, eng, vmBatchArrivals(in, apps)) {
		if bytes.Contains(rep, []byte(`"reason":"reconcile"`)) {
			t.Fatalf("reconcile move crossed a cut WAN link: %s", rep)
		}
	}
}
