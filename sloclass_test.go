package vb

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
)

// TestDefaultCohortSpecShape pins the deliverable's trace: at least four
// SLO classes and at least one bursty (gamma or weibull) cohort.
func TestDefaultCohortSpecShape(t *testing.T) {
	spec := DefaultCohortSpec(DefaultSeed, experimentStart, 7, 6)
	if err := spec.Validate(); err != nil {
		t.Fatalf("default cohort spec invalid: %v", err)
	}
	classes := map[string]bool{}
	bursty := 0
	for _, c := range spec.Cohorts {
		classes[c.Class] = true
		if c.Process == "gamma" || c.Process == "weibull" {
			bursty++
		}
	}
	if len(classes) < 4 {
		t.Errorf("default spec spans %d classes, want >= 4", len(classes))
	}
	if bursty == 0 {
		t.Error("default spec has no bursty cohort")
	}
}

// TestSLOClassComparison runs the per-class experiment on one policy and
// checks the ladder's signature: RealTime availability at least as high as
// Interactive, which is at least as high as Batch.
func TestSLOClassComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("7-day cohort run in -short mode")
	}
	res, err := SLOClassComparison(SLOClassSetup{Policies: []Policy{PolicyMIP}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps == 0 {
		t.Fatal("no cohort apps generated")
	}
	avail := map[WorkloadClass]float64{}
	for _, row := range res.Rows {
		if row.Availability < 0 || row.Availability > 1 {
			t.Fatalf("%v/%v availability %v outside [0,1]", row.Policy, row.Class, row.Availability)
		}
		if row.DemandCoreSteps <= 0 {
			t.Fatalf("%v/%v has no demand", row.Policy, row.Class)
		}
		avail[row.Class] = row.Availability
	}
	for _, c := range []WorkloadClass{RealTime, Interactive, Stable, Batch} {
		if _, ok := avail[c]; !ok {
			t.Fatalf("class %v missing from result (got %v)", c, avail)
		}
	}
	if avail[RealTime] < avail[Interactive] || avail[RealTime] < avail[Batch] {
		t.Errorf("realtime availability %v should top interactive %v and batch %v",
			avail[RealTime], avail[Interactive], avail[Batch])
	}
	if avail[Interactive] < avail[Batch] {
		t.Errorf("interactive availability %v should be >= batch %v (ladder order)",
			avail[Interactive], avail[Batch])
	}
	rep := res.Report()
	for _, want := range []string{"realtime", "interactive", "batch", "bursty"} {
		if !bytes.Contains([]byte(rep), []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// hashSimResult fingerprints a policy run. fmt's %v prints maps in sorted
// key order and floats in shortest round-trippable form, so equal hashes
// mean bit-identical results.
func hashSimResult(r SimResult) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%v", r))))
}

// TestCohortTraceReplayDeterministic is the trace v2 acceptance test: a
// simulation over a recorded-and-replayed cohort trace is golden-hash
// identical to the live-generated run, under a fault script.
func TestCohortTraceReplayDeterministic(t *testing.T) {
	spec := DefaultCohortSpec(DefaultSeed+1, experimentStart, 3, 10)
	live, err := GenerateCohortApps(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) == 0 {
		t.Fatal("spec generated no apps")
	}

	// Record and replay through the v2 format.
	var buf bytes.Buffer
	h := TraceHeader{Seed: spec.Seed, SpecHash: fmt.Sprintf("%016x", spec.Hash())}
	if err := WriteAppTrace(&buf, h, live); err != nil {
		t.Fatal(err)
	}
	gotH, replayed, err := ReadAppTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotH.SpecHash != h.SpecHash || gotH.Apps != len(live) {
		t.Fatalf("header mismatch: %+v", gotH)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Fatal("replayed apps differ from recorded apps")
	}

	// One shared power world; live and replayed demands; faults scripted
	// over the 3-day horizon (12 plan steps).
	ts := Table1Setup{Seed: DefaultSeed, Days: 3}.withDefaults()
	actual, bundles, err := buildGroupPower(ts, spec.Start, EuropeanTrio())
	if err != nil {
		t.Fatal(err)
	}
	script, err := ParseFaultSpec("brownout:1@2-5=0.5,slow:*@0-11=4")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewFaultInjector(script, len(actual), actual[0].Len())
	if err != nil {
		t.Fatal(err)
	}
	input := func(apps []App) SimInput {
		demands, err := appDemands(apps)
		if err != nil {
			t.Fatal(err)
		}
		return SimInput{
			Actual: actual, Bundles: bundles,
			TotalCores: float64(DefaultClusterConfig().TotalCores()),
			Apps:       demands, Faults: inj,
		}
	}

	cfg := SchedulerConfig{
		Policy: PolicyMIP, PlanStep: Table1PlanStep,
		UtilTarget: 0.7, MaxSitesPerApp: 3,
	}
	var hashes []string
	for _, apps := range [][]App{live, replayed} {
		res, err := RunPolicy(cfg, input(apps))
		if err != nil {
			t.Fatal(err)
		}
		// The replayed trace must exercise the class ledgers, not just
		// produce an empty result that trivially matches.
		if len(res.DemandByClass) < 3 {
			t.Fatalf("only %d classes saw demand", len(res.DemandByClass))
		}
		hashes = append(hashes, hashSimResult(res))
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("replayed result hash %s != live %s", hashes[1], hashes[0])
	}
}
