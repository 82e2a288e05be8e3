package obs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// emitWorkload drives a tracer through a representative mix of events and
// returns them for comparison.
func emitWorkload(tr *Tracer) {
	tr.Emit(Event{Type: PlanComputed, Step: 0, App: 1, Site: -1, Dst: -1, Cores: 100})
	tr.Emit(Event{Type: MIPSolveFinish, Step: 0, App: 1, Site: -1, Dst: -1, DurNS: 4e6})
	tr.Emit(Event{Type: PlannedRealloc, Step: 1, App: 1, Site: 0, Dst: 1, Cores: 40, GB: 160.25})
	tr.Emit(Event{Type: ForcedMigration, Step: 2, App: 2, Site: 1, Dst: 0, Cores: 10, GB: 33.5})
	tr.Emit(Event{Type: VMMoved, Step: 2, App: 2, Site: 1, Dst: 2, VM: 7, GB: 8})
	tr.Emit(Event{Type: MIPSolveFinish, Step: 3, App: 1, Site: -1, Dst: -1, DurNS: 1e6})
	tr.Emit(Event{Type: MIPSolveFinish, Step: 4, App: 2, Site: -1, Dst: -1, DurNS: 2e6})
	tr.Emit(Event{Type: Shortfall, Step: 5, App: 2, Site: -1, Dst: -1, Cores: 12.75})
}

func TestAnalyzeReconcilesWithTracerStats(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(4) // smaller than the workload: wrap must not matter
	tr.SetSink(&buf)
	emitWorkload(tr)

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	a := Analyze(events)
	if a.Events != 8 {
		t.Errorf("events = %d, want 8", a.Events)
	}
	// Bit-exact: the analyzer's per-type stats equal the live tracer's.
	if !reflect.DeepEqual(a.Types, tr.AllStats()) {
		t.Errorf("analysis types = %+v\ntracer stats = %+v", a.Types, tr.AllStats())
	}
	if a.Apps[1].Count != 4 || a.Apps[2].Count != 4 {
		t.Errorf("app stats = %+v", a.Apps)
	}
	if a.Sites[1].GB != 33.5+8 {
		t.Errorf("site 1 GB = %v, want 41.5", a.Sites[1].GB)
	}
	wantFlows := map[FlowKey]float64{
		{Src: 0, Dst: 1}: 160.25,
		{Src: 1, Dst: 0}: 33.5,
		{Src: 1, Dst: 2}: 8,
	}
	if !reflect.DeepEqual(a.Flows, wantFlows) {
		t.Errorf("flows = %+v, want %+v", a.Flows, wantFlows)
	}
	if got := a.SolveQuantile(0); got != time.Duration(1e6) {
		t.Errorf("min solve = %v", got)
	}
	if got := a.SolveQuantile(1); got != time.Duration(4e6) {
		t.Errorf("max solve = %v", got)
	}
	if got := a.SolveQuantile(0.5); got != time.Duration(2e6) {
		t.Errorf("median solve = %v", got)
	}

	var text strings.Builder
	if err := a.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"8 events", "forced_migration", "app 1", "site 0", "migration flows", "solver: 3 solves"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("report missing %q:\n%s", want, text.String())
		}
	}
}

func TestAnalyzeEmptyStream(t *testing.T) {
	a := Analyze(nil)
	if a.Events != 0 || len(a.Types) != 0 {
		t.Errorf("empty analysis = %+v", a)
	}
	if a.SolveQuantile(0.5) != 0 {
		t.Error("empty analysis quantile should be 0")
	}
	var text strings.Builder
	if err := a.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "0 events") {
		t.Errorf("report = %q", text.String())
	}
}

// TestRingWrapBoundaries pins the ring behavior at the wrap boundary:
// exactly size, size+1 and 2*size emissions, with exact TypeStats at each.
func TestRingWrapBoundaries(t *testing.T) {
	const size = 8
	for _, n := range []int{size, size + 1, 2 * size} {
		tr := NewTracer(size)
		for i := 0; i < n; i++ {
			tr.Emit(Event{Type: SiteStep, Step: i, Site: 0, Dst: -1, GB: 1.5, Cores: 2})
		}
		ev := tr.Events()
		wantLen := n
		if wantLen > size {
			wantLen = size
		}
		if len(ev) != wantLen {
			t.Fatalf("n=%d: ring holds %d events, want %d", n, len(ev), wantLen)
		}
		// Oldest-first, ending with the most recent emission.
		for i, e := range ev {
			wantStep := n - wantLen + i
			if e.Step != wantStep || e.Seq != int64(wantStep) {
				t.Errorf("n=%d: ring[%d] = step %d seq %d, want %d", n, i, e.Step, e.Seq, wantStep)
			}
		}
		s := tr.Stats(SiteStep)
		if s.Count != int64(n) || s.GB != 1.5*float64(n) || s.Cores != 2*float64(n) {
			t.Errorf("n=%d: stats = %+v, want exact totals over all %d emissions", n, s, n)
		}
	}
}

func TestReadEventsTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(8)
	tr.SetSink(&buf)
	tr.Emit(Event{Type: PlannedRealloc, Step: 0, Site: 0, Dst: 1, GB: 5})
	tr.Emit(Event{Type: ForcedMigration, Step: 1, Site: 1, Dst: 0, GB: 7})
	full := buf.Bytes()

	// A crash mid-write leaves a partial final record with no newline.
	firstLen := bytes.IndexByte(full, '\n') + 1
	truncated := full[:firstLen+10]
	events, err := ReadEvents(bytes.NewReader(truncated))
	if len(events) != 1 || events[0].Type != PlannedRealloc {
		t.Fatalf("recovered %d events (%+v), want the 1 intact record", len(events), events)
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ParseError", err)
	}
	if pe.Line != 2 || pe.Offset != int64(firstLen) {
		t.Errorf("ParseError at line %d byte %d, want line 2 byte %d", pe.Line, pe.Offset, firstLen)
	}
	if !strings.Contains(pe.Error(), "truncated record") {
		t.Errorf("error %q should name the truncation", pe.Error())
	}

	// Garbage in the middle: everything before it is still returned.
	corrupt := append(append([]byte{}, full[:firstLen]...), []byte("{not json}\n")...)
	corrupt = append(corrupt, full[firstLen:]...)
	events, err = ReadEvents(bytes.NewReader(corrupt))
	if len(events) != 1 {
		t.Fatalf("recovered %d events before corrupt line, want 1", len(events))
	}
	if !errors.As(err, &pe) || pe.Line != 2 {
		t.Errorf("corrupt line error = %v, want ParseError at line 2", err)
	}

	// Blank lines are skipped, not errors.
	spaced := append(append([]byte{}, full[:firstLen]...), '\n', '\n')
	spaced = append(spaced, full[firstLen:]...)
	events, err = ReadEvents(bytes.NewReader(spaced))
	if err != nil || len(events) != 2 {
		t.Errorf("blank lines: %d events err=%v, want 2 nil", len(events), err)
	}

	// A trailing newline-free but COMPLETE record still decodes.
	noNL := bytes.TrimSuffix(full, []byte("\n"))
	events, err = ReadEvents(bytes.NewReader(noNL))
	if err != nil || len(events) != 2 {
		t.Errorf("no trailing newline: %d events err=%v, want 2 nil", len(events), err)
	}
}

func TestReadEventsPositionsLaterLines(t *testing.T) {
	var b strings.Builder
	var offsets []int64
	for i := 0; i < 5; i++ {
		offsets = append(offsets, int64(b.Len()))
		fmt.Fprintf(&b, `{"seq":%d,"type":"site_step","step":%d,"app":-1,"site":0,"dst":-1}`+"\n", i, i)
	}
	bad := int64(b.Len())
	b.WriteString("xx\n")
	events, err := ReadEvents(strings.NewReader(b.String()))
	if len(events) != 5 {
		t.Fatalf("recovered %d events, want 5", len(events))
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ParseError", err)
	}
	if pe.Line != 6 || pe.Offset != bad {
		t.Errorf("ParseError at line %d byte %d, want line 6 byte %d", pe.Line, pe.Offset, bad)
	}
	_ = offsets
}
