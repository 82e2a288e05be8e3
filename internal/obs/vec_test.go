package obs

import (
	"reflect"
	"sync"
	"testing"
)

func TestCounterVecAccumulates(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("moves_gb", "policy", "src", "dst")
	v.Add(10, "MIP", "0", "1")
	v.Add(2.5, "MIP", "0", "1")
	v.Inc("MIP", "1", "0")
	v.Add(7, "Greedy", "0", "1")
	if got := v.Value("MIP", "0", "1"); got != 12.5 {
		t.Errorf("MIP 0->1 = %v, want 12.5", got)
	}
	if got := v.Value("MIP", "1", "0"); got != 1 {
		t.Errorf("MIP 1->0 = %v, want 1", got)
	}
	if got := v.Value("Greedy", "0", "1"); got != 7 {
		t.Errorf("Greedy 0->1 = %v, want 7", got)
	}
	if got := v.Value("none", "0", "1"); got != 0 {
		t.Errorf("absent series = %v, want 0", got)
	}
	if v.Name() != "moves_gb" {
		t.Errorf("name = %q", v.Name())
	}
	if !reflect.DeepEqual(v.LabelNames(), []string{"policy", "src", "dst"}) {
		t.Errorf("label names = %v", v.LabelNames())
	}
}

func TestVecDropsWrongLabelCount(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("c", "a", "b")
	c.Add(5, "only-one")
	c.Add(5, "x", "y", "z")
	if c.Value("only-one") != 0 || c.Value("x", "y", "z") != 0 {
		t.Error("mislabeled reads must read 0")
	}
	if s := c.Snapshot(); len(s.Values) != 0 {
		t.Errorf("mislabeled adds created series: %+v", s.Values)
	}
}

// TestVecLabelValuesAreOpaque: a series key is the label tuple itself, so
// any byte may appear in a label value, "" is a value like any other, and a
// snapshot carries exactly the vec's own labels.
func TestVecLabelValuesAreOpaque(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("c", "a", "b")
	v.Add(1, "x\x1fy", "z")
	v.Add(2, "x", "y\x1fz")
	v.Add(4, "", "")
	want := []LabeledValue{
		{Labels: []string{"", ""}, Value: 4},
		{Labels: []string{"x", "y\x1fz"}, Value: 2},
		{Labels: []string{"x\x1fy", "z"}, Value: 1},
	}
	if got := v.Snapshot().Values; !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot = %+v, want %+v", got, want)
	}
	one := r.NewCounterVec("one", "a")
	one.Inc("")
	if got := one.Snapshot().Values; !reflect.DeepEqual(got, []LabeledValue{{Labels: []string{""}, Value: 1}}) {
		t.Errorf("one-label snapshot = %+v", got)
	}
}

func TestNewCounterVecPanicsPastThreeLabels(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("three", "a", "b", "c") // the widest a vec may be
	defer func() {
		if recover() == nil {
			t.Error("a four-label vec was created")
		}
	}()
	r.NewCounterVec("four", "a", "b", "c", "d")
}

func TestVecSnapshotSortedAndSplitsLabels(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("c", "site", "class")
	// Insert out of order; snapshot must come back sorted by label tuple.
	v.Add(3, "2", "spot")
	v.Add(1, "0", "stable")
	v.Add(2, "0", "batch")
	s := v.Snapshot()
	if !reflect.DeepEqual(s.LabelNames, []string{"site", "class"}) {
		t.Errorf("label names = %v", s.LabelNames)
	}
	want := []LabeledValue{
		{Labels: []string{"0", "batch"}, Value: 2},
		{Labels: []string{"0", "stable"}, Value: 1},
		{Labels: []string{"2", "spot"}, Value: 3},
	}
	if !reflect.DeepEqual(s.Values, want) {
		t.Errorf("snapshot = %+v, want %+v", s.Values, want)
	}
}

func TestVecCreationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounterVec("c", "x")
	b := r.NewCounterVec("c", "different", "labels")
	if a != b {
		t.Error("same name must return the same vec")
	}
	if !reflect.DeepEqual(b.LabelNames(), []string{"x"}) {
		t.Errorf("existing label names must win, got %v", b.LabelNames())
	}
	b.Add(3, "v")
	b.Add(5, "different", "labels") // dropped: the vec has one label
	if got := a.Snapshot().Values; !reflect.DeepEqual(got, []LabeledValue{{Labels: []string{"v"}, Value: 3}}) {
		t.Errorf("series = %+v, want the one-label series only", got)
	}
}

func TestNilVecsAreNoOpAndAllocFree(t *testing.T) {
	var r *Registry
	c := r.NewCounterVec("c", "a")
	if c != nil {
		t.Fatal("nil registry must hand out nil vecs")
	}
	// None of these may panic.
	c.Add(1, "x")
	c.Inc("x")
	if c.Value("x") != 0 {
		t.Error("nil counter vec should read 0")
	}
	if s := c.Snapshot(); s.LabelNames != nil || s.Values != nil {
		t.Error("nil vec snapshot should be zero")
	}
	if c.Name() != "" || c.LabelNames() != nil {
		t.Error("nil vec name/labels should be zero")
	}

	allocs := testing.AllocsPerRun(200, func() {
		c.Add(1, "x")
		c.Inc("x", "y")
	})
	if allocs != 0 {
		t.Errorf("nil vec hot path allocates %v per run, want 0", allocs)
	}
}

// TestLiveVecAddIsAllocFree pins the live hot path: recording into an
// existing series of a three-label vec builds no key string and allocates
// nothing.
func TestLiveVecAddIsAllocFree(t *testing.T) {
	v := NewRegistry().NewCounterVec("moves_gb", "policy", "src", "dst")
	policy, src, dst := "MIP-24h", "none", "2"
	v.Add(1, policy, src, dst)
	v.Inc(policy, dst, src)
	allocs := testing.AllocsPerRun(200, func() {
		v.Add(2.5, policy, src, dst)
		v.Inc(policy, dst, src)
	})
	if allocs != 0 {
		t.Errorf("live vec Add/Inc allocates %v per run, want 0", allocs)
	}
	if got := v.Value(policy, src, dst); got != 1+201*2.5 {
		t.Errorf("series = %v, want %v", got, 1+201*2.5)
	}
}

func TestVecConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("c", "worker", "shared")
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	labels := []string{"0", "1", "2", "3", "4", "5", "6", "7"}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(1, labels[g], "all")  // distinct tuples
				c.Add(0.5, "shared", "all") // one contended tuple
				if i%100 == 0 {
					c.Snapshot() // readers interleave with writers
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if got := c.Value(labels[g], "all"); got != perG {
			t.Errorf("worker %d counter = %v, want %d", g, got, perG)
		}
	}
	if got := c.Value("shared", "all"); got != goroutines*perG/2 {
		t.Errorf("shared counter = %v, want %d", got, goroutines*perG/2)
	}
}

func TestRegistrySnapshotIncludesVecs(t *testing.T) {
	r := NewRegistry()
	r.SetLabel("policy", "MIP")
	r.Inc("flat")
	r.NewCounterVec("cv", "a").Add(4, "x")
	r.Emit(Event{Type: ForcedMigration, Site: 0, Dst: 1, GB: 3})
	s := r.Snapshot()
	if s.Counters["flat"] != 1 || s.Labels["policy"] != "MIP" {
		t.Errorf("flat metrics lost: %+v", s)
	}
	if got := s.CounterVecs["cv"].Values; len(got) != 1 || got[0].Value != 4 {
		t.Errorf("counter vec lost: %+v", s.CounterVecs)
	}
	if s.Events[ForcedMigration].GB != 3 {
		t.Errorf("tracer stats lost: %+v", s.Events)
	}
	// A nil registry snapshots to zero.
	var nilReg *Registry
	if got := nilReg.Snapshot(); !reflect.DeepEqual(got, RegistrySnapshot{}) {
		t.Errorf("nil snapshot = %+v", got)
	}
}
