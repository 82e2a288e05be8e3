package obs

import (
	"bytes"
	"testing"
)

// runJSONL returns what a Tracer sink writes over a short scheduling run:
// one event of every type, with the fields each type carries.
func runJSONL(tb testing.TB) []byte {
	tb.Helper()
	var sink bytes.Buffer
	tr := NewTracer(0)
	tr.SetSink(&sink)
	for _, e := range []Event{
		{Type: HorizonSwitch, Step: 0, App: -1, Site: 2, Dst: -1, Detail: "24h0m0s->168h0m0s"},
		{Type: MIPSolveStart, Step: 0, App: 1, Site: -1, Dst: -1, Cores: 37},
		{Type: MIPSolveFinish, Step: 0, App: 1, Site: -1, Dst: -1, Cores: 37, DurNS: 812345,
			Objective: -1.25e-3, Pivots: 41, Refactors: 2, EtaLen: 7},
		{Type: PlanComputed, Step: 0, App: 1, Site: -1, Dst: -1, Cores: 37, Detail: "place"},
		{Type: PlannedRealloc, Step: 3, App: 1, Site: 0, Dst: 2, Cores: 4.5, GB: 18.000000000000004},
		{Type: ForcedMigration, Step: 4, App: 1, Site: 2, Dst: 1, Cores: 0.1, GB: 0.4},
		{Type: StablePause, Step: 4, App: 1, Site: 2, Dst: -1, Cores: 3},
		{Type: Shortfall, Step: 5, App: 2, Site: -1, Dst: -1, Cores: 1e-9},
		{Type: VMEvicted, Step: 6, App: 2, Site: 1, Dst: -1, VM: 901, Cores: 8, GB: 32},
		{Type: VMMoved, Step: 6, App: 2, Site: -1, Dst: 0, VM: 901, Cores: 8, GB: 32, Detail: "rehome"},
		{Type: VMPlacementFail, Step: 7, App: 2, Site: -1, Dst: -1, VM: 902, Cores: 16},
		{Type: SiteStep, Step: 7, App: -1, Site: 0, Dst: -1, Cores: 12, GB: 96},
		{Type: FaultInjected, Step: 8, App: -1, Site: 1, Dst: -1, Detail: "site_blackout sev=0 window=[8,12)"},
		{Type: SchedulerFallback, Step: 9, App: 3, Site: -1, Dst: -1, Cores: 2, Detail: "rounded-lp"},
	} {
		tr.Emit(e)
	}
	if err := tr.Err(); err != nil {
		tb.Fatal(err)
	}
	return sink.Bytes()
}

func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzReadEvents holds the JSONL event decoder to its contract on any
// input. It never panics. An error is a *ParseError locating a line inside
// the input, and the events returned with it are exactly the intact prefix
// before that line. A clean decode, re-emitted through a Tracer sink,
// decodes to the same events (renumbered, as the tracer assigns Seq).
func FuzzReadEvents(f *testing.F) {
	run := runJSONL(f)
	f.Add(run)
	f.Add(run[:len(run)-9]) // a crash mid-write truncates the last record
	f.Add(append([]byte("\n \n"), bytes.ReplaceAll(run, []byte("\n"), []byte("\r\n\t\n\n"))...))
	f.Add([]byte{})
	f.Add([]byte("{\"seq\":1,\"type\":\"shortfall\"}\n{\"seq\":2,\"step\":1.5}\n{\"seq\":3}\n"))
	f.Add([]byte("null\n[]\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			pe, ok := err.(*ParseError)
			if !ok {
				t.Fatalf("error %v (%T) is not a *ParseError", err, err)
			}
			if pe.Line < 1 || pe.Offset < 0 || pe.Offset > int64(len(data)) {
				t.Fatalf("error %v is positioned outside the %d-byte input", pe, len(data))
			}
			prefix, perr := ReadEvents(bytes.NewReader(data[:pe.Offset]))
			if perr != nil {
				t.Fatalf("the prefix before %v does not decode: %v", pe, perr)
			}
			if !sameEvents(events, prefix) {
				t.Fatalf("%d events returned with %v, but the prefix decodes to %d", len(events), pe, len(prefix))
			}
			return
		}
		var sink bytes.Buffer
		tr := NewTracer(1)
		tr.SetSink(&sink)
		want := make([]Event, len(events))
		for i, e := range events {
			tr.Emit(e)
			e.Seq = int64(i)
			want[i] = e
		}
		if err := tr.Err(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEvents(&sink)
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
		if !sameEvents(back, want) {
			t.Fatalf("re-encoded stream decodes to %+v, want %+v", back, want)
		}
	})
}
