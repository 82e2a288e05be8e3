package sim

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"reflect"
	"sort"
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

// vmBatchArrivals converts the batch fixtures into per-step arrival batches
// exactly as RunVMLevel feeds its engine.
func vmBatchArrivals(in Input, apps []workload.App) []AppArrival {
	vmsByApp := map[int][]workload.VM{}
	for _, a := range apps {
		vmsByApp[a.ID] = a.VMs
	}
	arrivals := make([]AppArrival, 0, len(in.Apps))
	for _, d := range in.Apps {
		arrivals = append(arrivals, AppArrival{Demand: d, VMs: vmsByApp[d.ID]})
	}
	return arrivals
}

// stepReports drives an engine to completion feeding sorted arrivals, and
// returns every step's JSON-encoded report. The JSON form is what a daemon
// logs, so byte-comparing it is the determinism contract.
func stepReports(t *testing.T, eng *VMEngine, arrivals []AppArrival) [][]byte {
	t.Helper()
	sortArrivals(arrivals)
	var out [][]byte
	next := 0
	for !eng.Done() {
		now := eng.Now()
		var batch []AppArrival
		for next < len(arrivals) && !arrivals[next].Demand.Start.After(now) {
			batch = append(batch, arrivals[next])
			next++
		}
		rep, err := eng.Advance(batch)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, line)
	}
	return out
}

func sortArrivals(arrivals []AppArrival) {
	// The same sort call RunVMLevel makes, so tie-breaking matches too.
	sort.Slice(arrivals, func(i, j int) bool {
		return arrivals[i].Demand.Start.Before(arrivals[j].Demand.Start)
	})
}

// TestVMEngineMatchesBatch pins the tentpole parity claim: streaming the
// batch workload through VMEngine.Advance reproduces RunVMLevel's result
// exactly, field for field.
func TestVMEngineMatchesBatch(t *testing.T) {
	in, apps := vmLevelFixtures(t, 3)
	for _, pol := range []core.Policy{core.Greedy, core.MIP} {
		batch, err := RunVMLevel(simConfig(pol), in, apps, cluster.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewVMEngine(simConfig(pol), in, cluster.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		stepReports(t, eng, vmBatchArrivals(in, apps))
		got := eng.Result()
		if got.Moves != batch.Moves || got.FailedPlacements != batch.FailedPlacements ||
			got.Fragmentation != batch.Fragmentation {
			t.Fatalf("%v: streamed result %+v != batch %+v", pol, got, batch)
		}
		for i := range got.Transfer.Values {
			if got.Transfer.Values[i] != batch.Transfer.Values[i] {
				t.Fatalf("%v: transfer[%d] = %v streamed vs %v batch", pol, i,
					got.Transfer.Values[i], batch.Transfer.Values[i])
			}
		}
	}
}

// TestVMEngineSnapshotRestore pins crash recovery: snapshot mid-run,
// restore into a fresh engine, and the remaining steps' decision records
// must be byte-identical to the uninterrupted run's.
func TestVMEngineSnapshotRestore(t *testing.T) {
	in, apps := vmLevelFixtures(t, 3)
	cfg := simConfig(core.MIP)
	ccfg := cluster.DefaultConfig()
	arrivals := vmBatchArrivals(in, apps)

	full, err := NewVMEngine(cfg, in, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	fullReports := stepReports(t, full, arrivals)

	// Re-run, snapshotting at the midpoint.
	half, err := NewVMEngine(cfg, in, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	sortArrivals(arrivals)
	mid := half.Steps() / 2
	next := 0
	var part1 [][]byte
	for half.Step() < mid {
		now := half.Now()
		var batch []AppArrival
		for next < len(arrivals) && !arrivals[next].Demand.Start.After(now) {
			batch = append(batch, arrivals[next])
			next++
		}
		rep, err := half.Advance(batch)
		if err != nil {
			t.Fatal(err)
		}
		line, _ := json.Marshal(rep)
		part1 = append(part1, line)
	}
	var snap bytes.Buffer
	if err := half.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	restored, err := RestoreVMEngine(cfg, in, ccfg, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Step() != mid {
		t.Fatalf("restored engine at step %d, want %d", restored.Step(), mid)
	}
	part2 := part1
	for !restored.Done() {
		now := restored.Now()
		var batch []AppArrival
		for next < len(arrivals) && !arrivals[next].Demand.Start.After(now) {
			batch = append(batch, arrivals[next])
			next++
		}
		rep, err := restored.Advance(batch)
		if err != nil {
			t.Fatal(err)
		}
		line, _ := json.Marshal(rep)
		part2 = append(part2, line)
	}

	if len(part2) != len(fullReports) {
		t.Fatalf("restored run produced %d reports, want %d", len(part2), len(fullReports))
	}
	for i := range fullReports {
		if !bytes.Equal(part2[i], fullReports[i]) {
			t.Fatalf("step %d decision record diverges after restore:\nfull:     %s\nrestored: %s",
				i, fullReports[i], part2[i])
		}
	}
	gr, gf := restored.Result(), full.Result()
	if gr.Moves != gf.Moves || gr.FailedPlacements != gf.FailedPlacements || gr.Fragmentation != gf.Fragmentation {
		t.Fatalf("restored result %+v != full %+v", gr, gf)
	}
}

// TestVMEngineSnapshotRejectsMismatch ensures a snapshot cannot restore
// into a differently configured engine.
func TestVMEngineSnapshotRejectsMismatch(t *testing.T) {
	in, _ := vmLevelFixtures(t, 2)
	cfg := simConfig(core.MIP)
	eng, err := NewVMEngine(cfg, in, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Advance(nil); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := eng.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	other := simConfig(core.Greedy)
	if _, err := RestoreVMEngine(other, in, cluster.DefaultConfig(), bytes.NewReader(snap.Bytes())); err == nil {
		t.Error("policy mismatch should be rejected")
	}
	smaller := cluster.DefaultConfig()
	smaller.Servers = 100
	if _, err := RestoreVMEngine(cfg, in, smaller, bytes.NewReader(snap.Bytes())); err == nil {
		t.Error("cluster mismatch should be rejected")
	}
	if _, err := RestoreVMEngine(cfg, in, cluster.DefaultConfig(), bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage snapshot should be rejected")
	}
}

// TestVMEngineDisplacedExpiryNoLeak is the regression test for the vmSite
// map leak: a VM that is evicted (site -1) and then reaches its end of life
// while displaced must leave the location table. Before the fix, step 5
// only departed VMs with site >= 0, so every displaced-then-expired VM
// leaked one map entry for the rest of a long-lived run.
func TestVMEngineDisplacedExpiryNoLeak(t *testing.T) {
	// One tiny site; power collapses to zero so every VM is evicted, then
	// the VMs expire while displaced (the site has no room to rehome them).
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	step := 6 * time.Hour
	const T = 8
	actual := trace.New(start, step, T)
	for i := range actual.Values {
		if i == 0 {
			actual.Values[i] = 1
		} // full power only at step 0
	}
	bundle, err := forecast.New(7).NewBundle(actual, energy.Wind, "leak")
	if err != nil {
		t.Fatal(err)
	}
	if err := bundle.UseFixedHorizon(forecast.HorizonDay); err != nil {
		t.Fatal(err)
	}
	ccfg := cluster.Config{Servers: 2, CoresPerServer: 8, MemPerServerGB: 64, TargetUtilization: 0.9}
	in := Input{
		Actual:     []trace.Series{actual},
		Bundles:    []*forecast.Bundle{bundle},
		TotalCores: float64(ccfg.TotalCores()),
	}
	cfg := core.Config{Policy: core.Greedy, PlanStep: step, UtilTarget: 0.9}
	eng, err := NewVMEngine(cfg, in, ccfg)
	if err != nil {
		t.Fatal(err)
	}

	// Two stable VMs that live two steps: placed at step 0, evicted at
	// step 1 when power hits zero, expired by step 2 while displaced.
	lifetime := 2 * step
	vms := []workload.VM{
		{ID: 1, Cores: 2, MemoryGB: 8, Class: workload.Stable, Arrival: start, Lifetime: lifetime, AppID: 1},
		{ID: 2, Cores: 2, MemoryGB: 8, Class: workload.Stable, Arrival: start, Lifetime: lifetime, AppID: 1},
	}
	arr := AppArrival{
		Demand: core.AppDemand{ID: 1, Cores: 4, StableCores: 4, MemGBPerCore: 4, Start: start},
		VMs:    vms,
	}
	if _, err := eng.Advance([]AppArrival{arr}); err != nil {
		t.Fatal(err)
	}
	if eng.Running() != 2 {
		t.Fatalf("step 0: %d VMs running, want 2", eng.Running())
	}
	rep, err := eng.Advance(nil) // power 0: everything evicted
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Evicted) != 2 {
		t.Fatalf("step 1: %d evictions, want 2", len(rep.Evicted))
	}
	if eng.TrackedVMs() != 2 {
		t.Fatalf("step 1: tracking %d VMs, want 2 displaced", eng.TrackedVMs())
	}
	// Step 2: lifetimes are over; the displaced entries must be departed
	// even though the VMs were not running anywhere.
	if _, err := eng.Advance(nil); err != nil {
		t.Fatal(err)
	}
	if eng.TrackedVMs() != 0 {
		t.Fatalf("displaced expired VMs leaked: still tracking %d entries", eng.TrackedVMs())
	}
	for !eng.Done() {
		if _, err := eng.Advance(nil); err != nil {
			t.Fatal(err)
		}
	}
	if eng.TrackedVMs() != 0 {
		t.Fatalf("end of run: still tracking %d entries", eng.TrackedVMs())
	}
}

// TestVMEngineRefusesBadVMs: an arrival carrying a malformed VM, a VM of
// another app, or a firm VM ID the engine already holds (earlier in the
// batch, fed at an earlier step, or restored from a snapshot) is refused
// whole by CheckArrivals and Advance. The refusal leaves the engine
// unchanged: it goes on to decide exactly as an engine that never saw the
// batch. Before these checks, a repeated ID silently kept one of its VMs
// from ever running, since the location table is keyed by VM ID.
func TestVMEngineRefusesBadVMs(t *testing.T) {
	in, _ := vmLevelFixtures(t, 2)
	in.Apps = nil
	cfg, ccfg := simConfig(core.Greedy), cluster.DefaultConfig()
	start := in.Actual[0].Start
	vm := func(id, app int) workload.VM {
		return workload.VM{ID: id, Cores: 2, MemoryGB: 8, Class: workload.Stable, Arrival: start, AppID: app}
	}
	with := func(v workload.VM, edit func(*workload.VM)) workload.VM {
		edit(&v)
		return v
	}
	app := func(id int, vms ...workload.VM) AppArrival {
		return AppArrival{Demand: core.AppDemand{ID: id, Cores: 8, StableCores: 8, MemGBPerCore: 4, Start: start}, VMs: vms}
	}
	// fed returns an engine that has run one step holding app 1's VMs 1
	// and 2, itself or restored from its snapshot.
	fed := func(restored bool) *VMEngine {
		eng, err := NewVMEngine(cfg, in, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Advance([]AppArrival{app(1, vm(1, 1), vm(2, 1))}); err != nil {
			t.Fatal(err)
		}
		if !restored {
			return eng
		}
		var snap bytes.Buffer
		if err := eng.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		if eng, err = RestoreVMEngine(cfg, in, ccfg, &snap); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	cases := []struct {
		name  string
		batch []AppArrival
		want  string
	}{
		{"zero cores", []AppArrival{app(2, with(vm(3, 2), func(v *workload.VM) { v.Cores = 0 }))}, "non-positive size"},
		{"negative cores", []AppArrival{app(2, with(vm(3, 2), func(v *workload.VM) { v.Cores = -2 }))}, "non-positive size"},
		{"zero memory", []AppArrival{app(2, with(vm(3, 2), func(v *workload.VM) { v.MemoryGB = 0 }))}, "non-positive size"},
		{"negative lifetime", []AppArrival{app(2, with(vm(3, 2), func(v *workload.VM) { v.Lifetime = -time.Hour }))}, "negative lifetime"},
		{"unknown class", []AppArrival{app(2, with(vm(3, 2), func(v *workload.VM) { v.Class = workload.Batch + 1 }))}, "unknown class"},
		{"degradable VM malformed", []AppArrival{app(2, vm(3, 2), with(vm(4, 2), func(v *workload.VM) {
			v.Class, v.MemoryGB = workload.Degradable, 0
		}))}, "non-positive size"},
		{"VM of another app", []AppArrival{app(2, vm(3, 5))}, "belongs to app 5"},
		{"VM of no app", []AppArrival{app(2, vm(3, 0))}, "belongs to app 0"},
		{"ID repeated within an app", []AppArrival{app(2, vm(3, 2), vm(3, 2))}, "VM 3 fed twice"},
		{"ID shared by two apps", []AppArrival{app(2, vm(3, 2)), app(3, vm(3, 3))}, "VM 3 fed twice"},
		{"ID fed at an earlier step", []AppArrival{app(2, vm(4, 2), vm(1, 2))}, "VM 1 fed twice"},
		{"bad app after a good one", []AppArrival{app(2, vm(3, 2)), app(3, vm(4, 2))}, "belongs to app 2"},
	}
	good := []AppArrival{app(2, vm(3, 2), vm(4, 2))}
	for _, c := range cases {
		for _, restored := range []bool{false, true} {
			eng, ref := fed(restored), fed(restored)
			if err := eng.CheckArrivals(c.batch); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s (restored %v): CheckArrivals = %v, want an error naming %q", c.name, restored, err, c.want)
			}
			if _, err := eng.Advance(c.batch); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s (restored %v): Advance = %v, want an error naming %q", c.name, restored, err, c.want)
			}
			if eng.Step() != ref.Step() || eng.TrackedVMs() != ref.TrackedVMs() {
				t.Errorf("%s (restored %v): refusal moved the engine to step %d with %d VMs, want %d with %d",
					c.name, restored, eng.Step(), eng.TrackedVMs(), ref.Step(), ref.TrackedVMs())
			}
			got, want := stepReports(t, eng, append([]AppArrival(nil), good...)), stepReports(t, ref, append([]AppArrival(nil), good...))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (restored %v): decisions after the refusal differ from an engine that never saw it", c.name, restored)
			}
			if eng.Running() != 4 {
				t.Errorf("%s (restored %v): %d VMs running at the end, want 4", c.name, restored, eng.Running())
			}
		}
	}

	// Degradable VMs are never tracked, so their IDs may repeat.
	eng := fed(false)
	degr := with(vm(3, 2), func(v *workload.VM) { v.Class = workload.Degradable })
	if _, err := eng.Advance([]AppArrival{app(2, degr, degr, vm(4, 2))}); err != nil {
		t.Errorf("repeated degradable IDs refused: %v", err)
	}

	// A refused Enqueue leaves the queue as it was: none of the refused
	// arrival's IDs are taken.
	eng = fed(false)
	var q ArrivalQueue
	if err := eng.Enqueue(&q, app(2, vm(3, 2))); err != nil {
		t.Fatal(err)
	}
	if err := eng.Enqueue(&q, app(3, vm(4, 3), vm(3, 3))); err == nil || !strings.Contains(err.Error(), "VM 3 fed twice") {
		t.Errorf("Enqueue of a queued VM ID = %v, want a refusal naming it", err)
	}
	if err := eng.Enqueue(&q, app(3, vm(4, 3))); err != nil || len(q.Arrivals) != 2 {
		t.Errorf("Enqueue after a refusal = %v with %d queued, want nil with 2", err, len(q.Arrivals))
	}
	if _, err := eng.Advance(q.Arrivals); err != nil {
		t.Errorf("Advance of a queue Enqueue built: %v", err)
	}
}

// TestRestoreRejectsRepeatedVM: a snapshot whose apps hold one VM ID twice
// would restore an engine that silently never runs one of them; it is
// refused.
func TestRestoreRejectsRepeatedVM(t *testing.T) {
	in, apps := vmLevelFixtures(t, 2)
	cfg, ccfg := simConfig(core.Greedy), cluster.DefaultConfig()
	eng, err := NewVMEngine(cfg, in, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	stepReports(t, eng, vmBatchArrivals(in, apps))
	var snap bytes.Buffer
	if err := eng.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	var st vmEngineState
	if err := gob.NewDecoder(bytes.NewReader(snap.Bytes())).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Apps) < 2 || len(st.Apps[0].VMs) == 0 || len(st.Apps[1].VMs) == 0 {
		t.Fatalf("fixture snapshot holds too few apps with VMs: %d", len(st.Apps))
	}
	if _, err := RestoreVMEngine(cfg, in, ccfg, bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("unedited snapshot refused: %v", err)
	}
	st.Apps[1].VMs[0].ID = st.Apps[0].VMs[0].ID
	var bad bytes.Buffer
	if err := gob.NewEncoder(&bad).Encode(st); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreVMEngine(cfg, in, ccfg, &bad); err == nil || !strings.Contains(err.Error(), "repeats VM") {
		t.Errorf("snapshot with a repeated VM ID: err = %v, want a refusal naming it", err)
	}
}
