package vb

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// TestTraceAnalysisReconciles drives a full scheduler run with a JSONL
// sink and checks the obs v2 acceptance property: the offline analyzer's
// per-type aggregates equal the live tracer's TypeStats bit-for-bit, and
// the dimensional vec series sum back to the run's scalar aggregates.
func TestTraceAnalysisReconciles(t *testing.T) {
	reg := NewMetrics()
	var jsonl bytes.Buffer
	reg.Tracer().SetSink(&jsonl)

	setup := Table1Setup{Seed: DefaultSeed, Days: 3, Obs: reg}.withDefaults()
	sc, err := table1Scenario(setup, table1Start, EuropeanTrio())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPolicy(table1Config(setup, PolicyMIP), sc.in)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Tracer().Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}

	events, err := ReadTraceEvents(&jsonl)
	if err != nil {
		t.Fatalf("decoding JSONL: %v", err)
	}
	a := AnalyzeTrace(events)
	if a.Events != len(events) || a.Events == 0 {
		t.Fatalf("analyzed %d of %d events", a.Events, len(events))
	}

	// Bit-exact, not approximate: the analyzer replays the tracer's own
	// accumulation, so the maps must be deeply equal as floats.
	if !reflect.DeepEqual(a.Types, reg.Tracer().AllStats()) {
		t.Errorf("offline analysis diverged from live tracer stats:\nanalysis: %+v\ntracer:   %+v",
			a.Types, reg.Tracer().AllStats())
	}
	if got := a.Types[EventForcedMigration].GB; got != res.ForcedGB {
		t.Errorf("analyzed forced GB %v != result %v", got, res.ForcedGB)
	}

	// Every MIP solve appears in the duration sample.
	if int64(len(a.SolveNS)) != a.Types[EventMIPSolveFinish].Count {
		t.Errorf("%d solve durations for %d solve-finish events",
			len(a.SolveNS), a.Types[EventMIPSolveFinish].Count)
	}
	if a.SolveQuantile(0.5) > a.SolveQuantile(0.99) {
		t.Error("solve quantiles not monotone")
	}

	// The dimensional vecs must sum back to the run's scalar aggregates.
	snap := reg.Snapshot()
	var plannedVec, forcedVec float64
	for _, lv := range snap.CounterVecs["sim.planned_gb"].Values {
		plannedVec += lv.Value
	}
	for _, lv := range snap.CounterVecs["sim.forced_gb"].Values {
		forcedVec += lv.Value
	}
	if math.Abs(plannedVec-res.PlannedGB) > 1e-6*math.Max(1, res.PlannedGB) {
		t.Errorf("sim.planned_gb vec sums to %v, result PlannedGB %v", plannedVec, res.PlannedGB)
	}
	if math.Abs(forcedVec-res.ForcedGB) > 1e-6*math.Max(1, res.ForcedGB) {
		t.Errorf("sim.forced_gb vec sums to %v, result ForcedGB %v", forcedVec, res.ForcedGB)
	}
	if placed := snap.Counters["scheduler.placements"]; placed != float64(res.Placements) {
		t.Errorf("scheduler.placements = %v, result Placements %d", placed, res.Placements)
	}
	// Every vec series carries the policy label in position 0.
	for name, vs := range snap.CounterVecs {
		if len(vs.LabelNames) == 0 || vs.LabelNames[0] != "policy" {
			t.Errorf("vec %s label names = %v, want policy first", name, vs.LabelNames)
		}
		for _, lv := range vs.Values {
			if len(lv.Labels) != len(vs.LabelNames) {
				t.Errorf("vec %s series %v has %d values for %d names",
					name, lv.Labels, len(lv.Labels), len(vs.LabelNames))
			}
			if lv.Labels[0] != PolicyMIP.String() {
				t.Errorf("vec %s series %v policy label = %q", name, lv.Labels, lv.Labels[0])
			}
		}
	}

	// The analyzer's flow matrix equals the per-edge vec totals.
	for _, lv := range snap.CounterVecs["sim.planned_gb"].Values {
		src, dst := atoiLabel(t, lv.Labels[1]), atoiLabel(t, lv.Labels[2])
		flow := a.Flows[TraceFlowKey{Src: src, Dst: dst}]
		forced := reg.NewCounterVec("sim.forced_gb", "policy", "src", "dst").Value(lv.Labels[0], lv.Labels[1], lv.Labels[2])
		if math.Abs(flow-(lv.Value+forced)) > 1e-9*math.Max(1, flow) {
			t.Errorf("flow %d->%d: analyzer %v != vec planned %v + forced %v",
				src, dst, flow, lv.Value, forced)
		}
	}
}

func atoiLabel(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("label %q is not a site index", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}
