package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Inc("ops")
				r.Add("gb", 0.5)
				r.SetGauge("last", float64(i))
				r.Observe("lat", float64(i%10))
				r.Emit(Event{Type: ForcedMigration, Step: i, App: g, Site: 0, Dst: 1, GB: 1})
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("ops"); got != goroutines*perG {
		t.Errorf("ops counter = %v, want %d", got, goroutines*perG)
	}
	if got := r.Counter("gb"); got != goroutines*perG/2 {
		t.Errorf("gb counter = %v, want %d", got, goroutines*perG/2)
	}
	h, ok := r.Histogram("lat")
	if !ok || h.Count != goroutines*perG {
		t.Errorf("lat histogram count = %v ok=%v", h.Count, ok)
	}
	if got := r.Tracer().Stats(ForcedMigration).Count; got != goroutines*perG {
		t.Errorf("event count = %d, want %d", got, goroutines*perG)
	}
	if got := r.Tracer().Stats(ForcedMigration).GB; got != goroutines*perG {
		t.Errorf("event GB total = %v, want %d", got, goroutines*perG)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	r.NewHistogram("h", []float64{1, 2, 5})
	// Values on a bound land in that bound's bucket (v <= bound).
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 5, 7, 100} {
		r.Observe("h", v)
	}
	s, ok := r.Histogram("h")
	if !ok {
		t.Fatal("histogram missing")
	}
	want := []int64{2, 2, 2, 2} // (-inf,1], (1,2], (2,5], overflow
	if !reflect.DeepEqual(s.Counts, want) {
		t.Errorf("bucket counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 8 || s.Min != 0.5 || s.Max != 100 {
		t.Errorf("count=%d min=%v max=%v", s.Count, s.Min, s.Max)
	}
	if s.Sum != 0.5+1+1.5+2+3+5+7+100 {
		t.Errorf("sum = %v", s.Sum)
	}
	if m := s.Mean(); m != s.Sum/8 {
		t.Errorf("mean = %v", m)
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Error("empty snapshot mean should be 0")
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(8)
	tr.SetSink(&buf)
	in := []Event{
		{Type: PlanComputed, Step: 0, App: 3, Site: -1, Dst: -1, Cores: 120, Detail: "admit"},
		{Type: PlannedRealloc, Step: 2, App: 3, Site: 0, Dst: 1, Cores: 40, GB: 160},
		{Type: MIPSolveFinish, Step: 2, App: 3, Site: -1, Dst: -1, DurNS: 1234567, Objective: 42.5},
		{Type: StablePause, Step: 5, App: 7, Site: 2, Dst: -1, Cores: 11.25},
	}
	for _, e := range in {
		tr.Emit(e)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	got, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(got) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(got), len(in))
	}
	for i := range in {
		want := in[i]
		want.Seq = int64(i) // the tracer assigns sequence numbers
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want)
		}
	}
	// The in-memory ring holds the same events.
	if ring := tr.Events(); !reflect.DeepEqual(ring, got) {
		t.Errorf("ring %v != decoded %v", ring, got)
	}
}

func TestRingWrapKeepsExactTotals(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Type: ForcedMigration, Step: i, GB: 2})
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.Step != 6+i || e.Seq != int64(6+i) {
			t.Errorf("ring[%d] = step %d seq %d, want oldest-first tail", i, e.Step, e.Seq)
		}
	}
	if tr.Stats(ForcedMigration).Count != 10 {
		t.Errorf("count = %d, want 10 despite wrap", tr.Stats(ForcedMigration).Count)
	}
	if tr.Stats(ForcedMigration).GB != 20 {
		t.Errorf("gb total = %v, want 20 despite wrap", tr.Stats(ForcedMigration).GB)
	}
}

func TestNilRegistryIsNoOpAndAllocFree(t *testing.T) {
	var r *Registry
	// None of these may panic.
	r.Inc("c")
	r.Add("c", 2)
	r.SetGauge("g", 1)
	r.Observe("h", 1)
	r.ObserveDuration("d", time.Second)
	r.NewHistogram("h2", []float64{1})
	r.SetLabel("k", "v")
	r.Emit(Event{Type: StablePause})
	Time(r, "span")()
	if r.Counter("c") != 0 {
		t.Error("nil counter should read 0")
	}
	if _, ok := r.Gauge("g"); ok {
		t.Error("nil gauge should be absent")
	}
	if _, ok := r.Histogram("h"); ok {
		t.Error("nil histogram should be absent")
	}
	if got := r.Manifest(); got.Counters != nil || got.Events != nil {
		t.Error("nil manifest should be zero")
	}
	var tr *Tracer
	tr.Emit(Event{})
	tr.SetSink(&bytes.Buffer{})
	if tr.Events() != nil || tr.Stats(StablePause).Count != 0 || tr.Err() != nil {
		t.Error("nil tracer should be inert")
	}
	if r.Tracer() != nil {
		t.Error("nil registry tracer should be nil")
	}

	allocs := testing.AllocsPerRun(200, func() {
		r.Inc("c")
		r.Add("gb", 1.5)
		r.Observe("h", 3)
		r.Emit(Event{Type: ForcedMigration, Step: 1, Site: 0, Dst: 1, GB: 4})
		Time(r, "span")()
	})
	if allocs != 0 {
		t.Errorf("nil registry hot path allocates %v per run, want 0", allocs)
	}
}

func TestManifestJSON(t *testing.T) {
	r := NewRegistry()
	r.Inc("sim.placements")
	r.SetGauge("sim.sites", 3)
	r.Observe("mip.solve", 0.02)
	r.SetLabel("engine", "fluid")
	r.Emit(Event{Type: ForcedMigration, Step: 1, App: 2, Site: 0, Dst: 1, Cores: 10, GB: 40})
	m := r.Manifest()
	m.Seed = 42
	m.Policy = "MIP"
	m.Fleet = []string{"NO-solar", "UK-wind", "PT-wind"}

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back.Seed != 42 || back.Policy != "MIP" || len(back.Fleet) != 3 {
		t.Errorf("metadata lost: %+v", back)
	}
	if back.Counters["sim.placements"] != 1 || back.Gauges["sim.sites"] != 3 {
		t.Errorf("metrics lost: %+v", back)
	}
	if back.Events[ForcedMigration].GB != 40 || back.Events[ForcedMigration].Count != 1 {
		t.Errorf("event stats lost: %+v", back.Events)
	}
	if back.Histograms["mip.solve"].Count != 1 {
		t.Errorf("histogram lost: %+v", back.Histograms)
	}
	if back.Labels["engine"] != "fluid" {
		t.Errorf("labels lost: %+v", back.Labels)
	}
}

func TestTimeSpanRecords(t *testing.T) {
	r := NewRegistry()
	done := Time(r, "work")
	time.Sleep(2 * time.Millisecond)
	done()
	h, ok := r.Histogram("work")
	if !ok || h.Count != 1 {
		t.Fatalf("span not recorded: ok=%v count=%d", ok, h.Count)
	}
	if h.Sum <= 0 {
		t.Errorf("span duration = %v, want > 0", h.Sum)
	}
}
