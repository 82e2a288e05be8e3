package vb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestObservedRunReconciles drives a scheduler run with a live JSONL sink
// and checks the acceptance property end to end: the decoded event stream
// and the JSON manifest both reconcile *exactly* (==, not approximately)
// with the sim.Result aggregates.
func TestObservedRunReconciles(t *testing.T) {
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

	// The JSONL stream holds every event (no ring limit); re-summing the
	// decoded stream in order must give bit-identical totals.
	events, err := ReadTraceEvents(&jsonl)
	if err != nil {
		t.Fatalf("decoding JSONL: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events written to sink")
	}
	var forcedGB, pausedCores float64
	var plans int
	for _, e := range events {
		switch e.Type {
		case EventForcedMigration:
			forcedGB += e.GB
		case EventStablePause:
			pausedCores += e.Cores
		case EventPlanComputed:
			plans++
		}
	}
	if forcedGB != res.ForcedGB {
		t.Errorf("JSONL forced GB %v != result ForcedGB %v", forcedGB, res.ForcedGB)
	}
	if pausedCores != res.PausedStableCoreSteps {
		t.Errorf("JSONL pause cores %v != result PausedStableCoreSteps %v", pausedCores, res.PausedStableCoreSteps)
	}
	if plans != res.Placements {
		t.Errorf("JSONL plan events %d != result Placements %d", plans, res.Placements)
	}

	// The manifest's exact per-type totals must agree too, and survive a
	// JSON round trip unchanged.
	m := reg.Manifest()
	m.Seed = setup.Seed
	m.Policy = PolicyMIP.String()
	if got := m.Events[EventForcedMigration].GB; got != res.ForcedGB {
		t.Errorf("manifest forced GB %v != result ForcedGB %v", got, res.ForcedGB)
	}
	if got := m.Events[EventStablePause].Cores; got != res.PausedStableCoreSteps {
		t.Errorf("manifest pause cores %v != result PausedStableCoreSteps %v", got, res.PausedStableCoreSteps)
	}
	var out bytes.Buffer
	if err := m.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var back RunManifest
	if err := json.Unmarshal(out.Bytes(), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back.Events[EventForcedMigration] != m.Events[EventForcedMigration] {
		t.Errorf("forced stats changed across JSON round trip: %+v != %+v",
			back.Events[EventForcedMigration], m.Events[EventForcedMigration])
	}
	if back.Policy != m.Policy || back.Seed != m.Seed {
		t.Errorf("manifest metadata changed across round trip: %+v", back)
	}
	if _, ok := back.Histograms["mip.solve"]; !ok {
		t.Error("manifest lost the mip.solve histogram")
	}
	// Solver-health counters from the simplex core.
	if back.Counters["lp.pivots"] <= 0 {
		t.Errorf("manifest lp.pivots = %v, want > 0", back.Counters["lp.pivots"])
	}
}

// TestFig4MigrationObs checks the single-site cluster path (what vbsim
// drives) emits a well-formed event stream and matches the unobserved run.
func TestFig4MigrationObs(t *testing.T) {
	reg := NewMetrics()
	var jsonl bytes.Buffer
	reg.Tracer().SetSink(&jsonl)
	obsRes, err := Fig4MigrationObs(DefaultSeed, Wind, 3, reg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Fig4Migration(DefaultSeed, Wind, 3)
	if err != nil {
		t.Fatal(err)
	}
	if obsRes.Run.TotalOutGB() != plain.Run.TotalOutGB() || obsRes.QuietFraction != plain.QuietFraction {
		t.Errorf("observed Fig4 diverged: out %v vs %v", obsRes.Run.TotalOutGB(), plain.Run.TotalOutGB())
	}
	events, err := ReadTraceEvents(&jsonl)
	if err != nil {
		t.Fatalf("decoding JSONL: %v", err)
	}
	var steps int64
	for _, e := range events {
		if e.Type == EventSiteStep {
			steps++
		}
	}
	if steps == 0 {
		t.Error("cluster run emitted no site_step events")
	}
	if got := reg.Tracer().Stats(EventSiteStep).Count; got != steps {
		t.Errorf("tracer count %d != sink count %d", got, steps)
	}
	if c := reg.Counter("cluster.out_gb"); c != plain.Run.TotalOutGB() {
		t.Errorf("cluster.out_gb counter %v != run total %v", c, plain.Run.TotalOutGB())
	}
	if h, ok := reg.Histogram("cluster.run"); !ok || h.Count != 1 {
		t.Errorf("cluster.run span = %+v, %v; want one recording", h, ok)
	}
}

// failingWriter fails every write with a numbered error.
type failingWriter struct{ n int }

func (w *failingWriter) Write([]byte) (int, error) {
	w.n++
	return 0, fmt.Errorf("write %d refused", w.n)
}

// TestFinishTraceSink drives the CLIs' guard against silently lost events
// through both failure modes of a JSONL sink, and the unobserved run.
func TestFinishTraceSink(t *testing.T) {
	t.Run("write", func(t *testing.T) {
		f, err := os.Create(filepath.Join(t.TempDir(), "trace.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		reg := NewMetrics()
		reg.Tracer().SetSink(&failingWriter{})
		reg.Emit(TraceEvent{Type: EventPlanComputed})
		reg.Emit(TraceEvent{Type: EventPlanComputed})
		err = FinishTraceSink(reg, f)
		if err == nil || !strings.HasPrefix(err.Error(), "trace sink write: ") || !strings.Contains(err.Error(), "write 1 refused") {
			t.Errorf("err = %v, want the first write error as a trace sink write error", err)
		}
		if err := f.Close(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("sink file not closed: second Close = %v", err)
		}
	})
	t.Run("close", func(t *testing.T) {
		f, err := os.Create(filepath.Join(t.TempDir(), "trace.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		reg := NewMetrics()
		reg.Tracer().SetSink(f)
		if err := f.Close(); err != nil { // the next Close fails
			t.Fatal(err)
		}
		err = FinishTraceSink(reg, f)
		if err == nil || !strings.HasPrefix(err.Error(), "trace sink close: ") || !errors.Is(err, os.ErrClosed) {
			t.Errorf("err = %v, want a trace sink close error wrapping os.ErrClosed", err)
		}
	})
	t.Run("nil", func(t *testing.T) {
		if err := FinishTraceSink(nil, nil); err != nil {
			t.Errorf("nil registry and file: err = %v, want nil", err)
		}
	})
}
