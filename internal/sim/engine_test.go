package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/vbcloud/vb/internal/cluster"
	"github.com/vbcloud/vb/internal/core"
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

// TestEngineStreamingValidation covers the streaming-only entry points of
// both engines: an engine accepts an empty Input.Apps (demands arrive via
// Advance) but still rejects malformed inputs and demands. A refused batch
// leaves the engine unchanged, so a retry admits each app exactly once, and
// an app already fed is refused at a later step.
func TestEngineStreamingValidation(t *testing.T) {
	in, apps := vmLevelFixtures(t, 2)
	var good []AppArrival
	for _, arr := range vmBatchArrivals(in, apps) {
		if arr.Demand.StableCores > 0 && len(good) < 2 {
			arr.Demand.Start = t0
			good = append(good, arr)
		}
	}
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
