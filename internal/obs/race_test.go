package obs

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrentWriters hammers every Registry and Tracer write path
// from many goroutines at once. Run under -race (CI does), it proves the
// registry one run threads through the whole parallel pipeline is safe for
// concurrent writers, and that the exact aggregates survive contention.
func TestRegistryConcurrentWriters(t *testing.T) {
	const (
		writers = 16
		perG    = 500
	)
	reg := NewRegistry()
	var sink bytes.Buffer
	reg.Tracer().SetSink(&sink)

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				reg.Add("counter", 1)
				reg.Inc("inc")
				reg.SetGauge("gauge", float64(g))
				reg.Observe("hist", float64(i))
				reg.ObserveDuration("dur", time.Millisecond)
				reg.SetLabel("label", "v")
				reg.Emit(Event{Type: SiteStep, Step: i, App: -1, Site: g, Dst: -1, GB: 1})
				func() { defer Time(reg, "span")() }()
				// Concurrent readers race against the writers too.
				_ = reg.Counter("counter")
				_, _ = reg.Gauge("gauge")
				_, _ = reg.Histogram("hist")
				_ = reg.Tracer().Stats(SiteStep).Count
				_ = reg.Tracer().Events()
				_ = reg.Tracer().AllStats()
			}
		}(g)
	}
	wg.Wait()

	const n = writers * perG
	if got := reg.Counter("counter"); got != n {
		t.Errorf("counter = %v, want %d", got, n)
	}
	if got := reg.Counter("inc"); got != n {
		t.Errorf("inc = %v, want %d", got, n)
	}
	if h, ok := reg.Histogram("hist"); !ok || h.Count != n {
		t.Errorf("hist count = %v, want %d", h.Count, n)
	}
	if got := reg.Tracer().Stats(SiteStep).Count; got != n {
		t.Errorf("events = %d, want %d", got, n)
	}
	if got := reg.Tracer().Stats(SiteStep).GB; got != n {
		t.Errorf("GB total = %v, want %d (exact despite ring wrap)", got, n)
	}
	if err := reg.Tracer().Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	// Every event reached the JSONL sink exactly once, with unique seqs.
	events, err := ReadEvents(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != n {
		t.Fatalf("sink holds %d events, want %d", len(events), n)
	}
	seen := make(map[int64]bool, n)
	for _, e := range events {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d in sink", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestTracerConcurrentEmitRingWrap checks the ring stays consistent (exact
// type totals, bounded buffer) when wrapped by concurrent emitters.
func TestTracerConcurrentEmitRingWrap(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	const writers, perG = 8, 100
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Emit(Event{Type: VMMoved, App: -1, Site: -1, Dst: -1, Cores: 2})
			}
		}()
	}
	wg.Wait()
	if got := tr.Stats(VMMoved).Count; got != writers*perG {
		t.Errorf("count = %d, want %d", got, writers*perG)
	}
	if got := tr.Stats(VMMoved).Cores; got != writers*perG*2 {
		t.Errorf("core total = %v, want %d", got, writers*perG*2)
	}
	if ev := tr.Events(); len(ev) != 64 {
		t.Errorf("ring holds %d events, want 64 after wrap", len(ev))
	}
}
