package obs

import (
	"reflect"
	"sync"
	"testing"
	"time"
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
	if s := c.Snapshot(); len(s.Values) != 0 {
		t.Errorf("mislabeled adds created series: %+v", s.Values)
	}
	h := r.NewHistogramVec("h", nil, "a")
	h.Observe(1)
	h.Observe(1, "x", "y")
	if s := h.Snapshot(); len(s.Histograms) != 0 {
		t.Errorf("mislabeled observes created series: %+v", s.Histograms)
	}
}

func TestHistogramVecSeries(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("solve", []float64{1, 10}, "policy", "app")
	v.Observe(0.5, "MIP", "1")
	v.Observe(5, "MIP", "1")
	v.Observe(50, "MIP", "2")
	v.ObserveDuration(2*time.Second, "MIP", "1")
	s, ok := v.SeriesSnapshot("MIP", "1")
	if !ok || s.Count != 3 {
		t.Fatalf("series MIP/1: count=%d ok=%v, want 3 true", s.Count, ok)
	}
	if want := []int64{1, 2, 0}; !reflect.DeepEqual(s.Counts, want) {
		t.Errorf("bucket counts = %v, want %v", s.Counts, want)
	}
	if _, ok := v.SeriesSnapshot("Greedy", "1"); ok {
		t.Error("unobserved series should report absent")
	}
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
	h1 := r.NewHistogramVec("h", []float64{1}, "x")
	h2 := r.NewHistogramVec("h", nil, "x")
	if h1 != h2 {
		t.Error("same name must return the same histogram vec")
	}
}

func TestNilVecsAreNoOpAndAllocFree(t *testing.T) {
	var r *Registry
	c := r.NewCounterVec("c", "a")
	h := r.NewHistogramVec("h", nil, "a")
	if c != nil || h != nil {
		t.Fatal("nil registry must hand out nil vecs")
	}
	// None of these may panic.
	c.Add(1, "x")
	c.Inc("x")
	h.Observe(1, "x")
	h.ObserveDuration(time.Second, "x")
	if c.Value("x") != 0 {
		t.Error("nil counter vec should read 0")
	}
	if _, ok := h.SeriesSnapshot("x"); ok {
		t.Error("nil histogram vec should be absent")
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
		h.Observe(3, "x")
	})
	if allocs != 0 {
		t.Errorf("nil vec hot path allocates %v per run, want 0", allocs)
	}
}

func TestVecConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("c", "worker", "shared")
	h := r.NewHistogramVec("h", nil, "worker")
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
				h.Observe(float64(i), labels[g])
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
		s, ok := h.SeriesSnapshot(labels[g])
		if !ok || s.Count != perG {
			t.Errorf("worker %d histogram count = %d ok=%v, want %d", g, s.Count, ok, perG)
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
	r.NewHistogramVec("hv", nil, "a").Observe(1, "z")
	r.Emit(Event{Type: ForcedMigration, Site: 0, Dst: 1, GB: 3})
	s := r.Snapshot()
	if s.Counters["flat"] != 1 || s.Labels["policy"] != "MIP" {
		t.Errorf("flat metrics lost: %+v", s)
	}
	if got := s.CounterVecs["cv"].Values; len(got) != 1 || got[0].Value != 4 {
		t.Errorf("counter vec lost: %+v", s.CounterVecs)
	}
	if got := s.HistogramVecs["hv"].Histograms; len(got) != 1 || got[0].Hist.Count != 1 {
		t.Errorf("histogram vec lost: %+v", s.HistogramVecs)
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
