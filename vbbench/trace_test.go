package main

import (
	"math"
	"testing"
)

// spanAt records a span with given times in milliseconds.
func spanAt(t *tracer, run, name, attr string, parent int, startMS, endMS int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Run: run, ID: id, Parent: parent, Name: name, Attr: attr,
		Start: startMS * 1e6, End: endMS * 1e6})
	return id
}

// TestTracerSumsOwnSpans checks that a workload's tracer sums the spans of
// all its runs that share a name, subtracts children from self time, and
// is untouched by another workload's spans of the same name.
func TestTracerSumsOwnSpans(t *testing.T) {
	table1 := newTracer()
	for i, run := range []string{"table1-week/seed=1", "table1-week/seed=2"} {
		off := int64(i) * 100
		root := spanAt(table1, run, "table1-week", "", 0, off, off+100)
		spanAt(table1, run, "energy.generate", "", root, off, off+10)
		spanAt(table1, run, "sim.advance", "MIP", root, off+10, off+40)
		spanAt(table1, run, "sim.advance", "Greedy", root, off+40, off+50)
	}
	fig4a := newTracer()
	root := spanAt(fig4a, "fig4a-month/seed=1", "fig4a-month", "", 0, 0, 1000)
	spanAt(fig4a, "fig4a-month/seed=1", "energy.generate", "", root, 0, 500)

	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	total, _, each := table1.durations("energy.generate")
	near("table1 energy.generate total", total, 0.020)
	if len(each) != 2 {
		t.Errorf("table1 energy.generate count = %d, want 2", len(each))
	}
	total, byAttr, each := table1.durations("sim.advance")
	near("table1 sim.advance total", total, 0.080)
	near("table1 sim.advance MIP", byAttr["MIP"], 0.060)
	near("table1 sim.advance Greedy", byAttr["Greedy"], 0.020)
	if len(each) != 4 {
		t.Errorf("table1 sim.advance count = %d, want 4", len(each))
	}
	self := table1.selfSeconds()
	near("table1 root self", self["table1-week"], 0.100)
	near("table1 energy self", self["energy.generate"], 0.020)

	total, _, each = fig4a.durations("energy.generate")
	near("fig4a energy.generate total", total, 0.500)
	if len(each) != 1 {
		t.Errorf("fig4a energy.generate count = %d, want 1", len(each))
	}
	near("fig4a root self", fig4a.selfSeconds()["fig4a-month"], 0.500)
}
