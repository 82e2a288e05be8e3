package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/cluster"
	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/obs"
)

// TestEngineMatchesRun pins the core-level parity claim: streaming the
// batch demands through Engine.Advance reproduces Run exactly.
func TestEngineMatchesRun(t *testing.T) {
	in := trioInput(t, 3, 6)
	for _, pol := range []core.Policy{core.Greedy, core.MIP} {
		batch, err := Run(simConfig(pol), in)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(simConfig(pol), in)
		if err != nil {
			t.Fatal(err)
		}
		apps := append([]core.AppDemand(nil), in.Apps...)
		sort.Slice(apps, func(i, j int) bool { return apps[i].Start.Before(apps[j].Start) })
		next := 0
		var admitted, replans int
		for !eng.Done() {
			now := eng.Now()
			var arr []core.AppDemand
			for next < len(apps) && !apps[next].Start.After(now) {
				arr = append(arr, apps[next])
				next++
			}
			rep, err := eng.Advance(arr)
			if err != nil {
				t.Fatal(err)
			}
			admitted += len(rep.Admitted)
			replans += rep.Replans
		}
		got := eng.Result()
		if got.PlannedGB != batch.PlannedGB || got.ForcedGB != batch.ForcedGB ||
			got.PausedStableCoreSteps != batch.PausedStableCoreSteps ||
			got.ShortfallCoreSteps != batch.ShortfallCoreSteps ||
			got.Placements != batch.Placements {
			t.Fatalf("%v: streamed result diverges from batch:\n%+v\nvs\n%+v", pol, got, batch)
		}
		for i := range got.Transfer.Values {
			if got.Transfer.Values[i] != batch.Transfer.Values[i] {
				t.Fatalf("%v: transfer[%d] = %v streamed vs %v batch", pol, i,
					got.Transfer.Values[i], batch.Transfer.Values[i])
			}
		}
		if admitted+replans != batch.Placements {
			t.Fatalf("%v: %d admissions + %d replans != %d placements", pol, admitted, replans, batch.Placements)
		}
		// The timeline is exhausted: another step must fail loudly.
		if _, err := eng.Advance(nil); err == nil {
			t.Fatal("Advance past end of timeline should error")
		}
	}
}

// TestStepReportsSumTheirEvents holds each fluid step report to that
// step's own events.
//
// GIVEN a traced 7-day run of each policy, streamed through Advance,
// WHEN each step's move, pause and shortfall events are summed in emission
// order,
// THEN each sum equals that step's report field under ==.
//
// A report computed as a running total minus the total before the step
// differs from the step's own sum in the last bits.
func TestStepReportsSumTheirEvents(t *testing.T) {
	for _, pol := range core.AllPolicies() {
		in := trioInput(t, 7, 6)
		reg := obs.NewRegistry()
		var stream bytes.Buffer
		reg.Tracer().SetSink(&stream)
		in.Obs = reg
		eng, err := NewEngine(simConfig(pol), in)
		if err != nil {
			t.Fatal(err)
		}
		apps := append([]core.AppDemand(nil), in.Apps...)
		sort.Slice(apps, func(i, j int) bool { return apps[i].Start.Before(apps[j].Start) })
		next := 0
		var reps []StepReport
		for !eng.Done() {
			var arr []core.AppDemand
			for next < len(apps) && !apps[next].Start.After(eng.Now()) {
				arr = append(arr, apps[next])
				next++
			}
			rep, err := eng.Advance(arr)
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
		events, err := obs.ReadEvents(&stream)
		if err != nil {
			t.Fatal(err)
		}
		sums := make([]StepReport, len(reps))
		for _, e := range events {
			if e.Step < 0 {
				continue // forecast horizon switches carry no step
			}
			s := &sums[e.Step]
			switch e.Type {
			case obs.PlannedRealloc:
				s.PlannedGB += e.GB
				s.TransferGB += e.GB
			case obs.ForcedMigration:
				s.ForcedGB += e.GB
				s.TransferGB += e.GB
			case obs.StablePause:
				s.PausedCoreSteps += e.Cores
			case obs.Shortfall:
				s.ShortfallCoreSteps += e.Cores
			}
		}
		traffic := 0
		for i, rep := range reps {
			want := sums[i]
			if rep.TransferGB > 0 {
				traffic++
			}
			if rep.PlannedGB != want.PlannedGB || rep.ForcedGB != want.ForcedGB ||
				rep.TransferGB != want.TransferGB || rep.PausedCoreSteps != want.PausedCoreSteps ||
				rep.ShortfallCoreSteps != want.ShortfallCoreSteps {
				t.Errorf("%v step %d: report planned=%v forced=%v transfer=%v paused=%v short=%v, events sum to %v %v %v %v %v",
					pol, rep.Step, rep.PlannedGB, rep.ForcedGB, rep.TransferGB, rep.PausedCoreSteps, rep.ShortfallCoreSteps,
					want.PlannedGB, want.ForcedGB, want.TransferGB, want.PausedCoreSteps, want.ShortfallCoreSteps)
			}
		}
		if traffic == 0 {
			t.Errorf("%v: no step moved traffic; the check is vacuous", pol)
		}
	}
}

// TestEngineStreamingValidation covers the streaming-only entry points of
// both engines: an engine accepts an empty Input.Apps (demands arrive via
// Advance) but still rejects malformed inputs and demands. A refused batch
// leaves the engine unchanged, so a retry admits each app exactly once, and
// an app already fed is refused at a later step. An app whose End precedes
// the timeline is accepted but never placed.
func TestEngineStreamingValidation(t *testing.T) {
	in, apps := vmLevelFixtures(t, 2)
	var good []AppArrival
	for _, arr := range vmBatchArrivals(in, apps) {
		if arr.Demand.StableCores > 0 && len(good) < 3 {
			arr.Demand.Start = t0
			good = append(good, arr)
		}
	}
	// The third app starts with the timeline but ended an hour before it.
	past := good[2]
	past.Demand.End = t0.Add(-time.Hour)
	good = good[:2]
	wantIDs := []int{good[0].Demand.ID, good[1].Demand.ID}
	streaming := in
	streaming.Apps = nil
	fluid, err := NewEngine(simConfig(core.MIP), streaming)
	if err != nil {
		t.Fatalf("empty Apps should be legal for a streaming engine: %v", err)
	}
	vm, err := NewVMEngine(simConfig(core.MIP), streaming, cluster.DefaultConfig())
	if err != nil {
		t.Fatalf("empty Apps should be legal for a streaming VM engine: %v", err)
	}
	engines := []struct {
		name    string
		advance func([]AppArrival) ([]int, error)
		state   func() string
	}{
		{"Engine", func(batch []AppArrival) ([]int, error) {
			var ds []core.AppDemand
			for _, arr := range batch {
				ds = append(ds, arr.Demand)
			}
			rep, err := fluid.Advance(ds)
			return rep.Admitted, err
		}, func() string { return fmt.Sprint(fluid.Step(), fluid.Result()) }},
		{"VMEngine", func(batch []AppArrival) ([]int, error) {
			rep, err := vm.Advance(batch)
			return rep.Admitted, err
		}, func() string { return fmt.Sprint(vm.Step(), vm.TrackedVMs(), vm.Result()) }},
	}
	for _, e := range engines {
		before := e.state()
		for _, batch := range [][]AppArrival{
			{good[0], good[1], {Demand: core.AppDemand{ID: 1 << 30}}},
			{good[0], good[1], good[0]},
		} {
			if _, err := e.advance(batch); err == nil {
				t.Errorf("%s: batch with an invalid or repeated app should be refused", e.name)
			}
			if got := e.state(); got != before {
				t.Errorf("%s: refused batch changed the engine:\n%s\nvs\n%s", e.name, got, before)
			}
		}
		admitted, err := e.advance(good)
		if err != nil {
			t.Fatalf("%s: retry of the corrected batch: %v", e.name, err)
		}
		if !reflect.DeepEqual(admitted, wantIDs) {
			t.Errorf("%s: retry admitted %v, want %v", e.name, admitted, wantIDs)
		}
		before = e.state()
		if _, err := e.advance(good[1:]); err == nil {
			t.Errorf("%s: an app fed at an earlier step should be refused", e.name)
		}
		if got := e.state(); got != before {
			t.Errorf("%s: refused repeat changed the engine", e.name)
		}
		if admitted, err := e.advance([]AppArrival{past}); err != nil || len(admitted) != 0 {
			t.Errorf("%s: an app that ended before the timeline: admitted %v (err %v), want none", e.name, admitted, err)
		}
	}
	bad := streaming
	bad.Actual = nil
	if _, err := NewEngine(simConfig(core.Greedy), bad); err == nil {
		t.Error("input without sites should be rejected")
	}
	if _, err := NewVMEngine(simConfig(core.Greedy), bad, cluster.DefaultConfig()); err == nil {
		t.Error("VM engine should reject input without sites")
	}
}
