package fault

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/vbcloud/vb/internal/obs"
)

func TestNilInjectorIsIdentity(t *testing.T) {
	var inj *Injector
	if f := inj.CapFactor(0, 5); f != 1 {
		t.Fatalf("nil CapFactor = %v, want 1", f)
	}
	if f := inj.ForecastFactor(0, 5, 9); f != 1 {
		t.Fatalf("nil ForecastFactor = %v, want 1", f)
	}
	if f := inj.SolverInflation(3); f != 1 {
		t.Fatalf("nil SolverInflation = %v, want 1", f)
	}
	if b := inj.WANBudget(3); b != nil {
		t.Fatalf("nil WANBudget = %v, want nil", b)
	}
	if h := inj.Hash(); h != 0 {
		t.Fatalf("nil Hash = %d, want 0", h)
	}
	inj.OnStep(0, nil) // must not panic
	var b *LinkBudget
	if !b.CanMove(0, 1, 1e12) {
		t.Fatal("nil LinkBudget must be unlimited")
	}
	b.Consume(0, 1, 5) // must not panic
}

func TestValidateRejectsBadEvents(t *testing.T) {
	cases := []Event{
		{Kind: SiteBlackout, Site: 0, Start: 5, End: 5},              // empty window
		{Kind: SiteBlackout, Site: 0, Start: -1, End: 2},             // negative start
		{Kind: SiteBlackout, Site: 0, Start: 0, End: 99},             // past horizon
		{Kind: SiteBlackout, Site: 3, Start: 0, End: 1},              // site out of range
		{Kind: SiteBrownout, Site: 0, Start: 0, End: 1, Severity: 0}, // zero severity
		{Kind: SiteBrownout, Site: 0, Start: 0, End: 1, Severity: 2},
		{Kind: SiteBrownout, Site: 0, Start: 0, End: 1, Severity: math.NaN()},
		{Kind: WANCut, Site: 0, Peer: 7, Start: 0, End: 1},
		{Kind: WANDegraded, Site: 0, Peer: 1, Start: 0, End: 1, Severity: -3},
		{Kind: ForecastBust, Site: 0, Start: 0, End: 1, Severity: 0},
		{Kind: SolverSlowdown, Site: -1, Start: 0, End: 1, Severity: 0.5},
		{Kind: Kind(99), Site: 0, Start: 0, End: 1},
	}
	for i, e := range cases {
		s := &Script{Events: []Event{e}}
		if err := s.Validate(3, 10); err == nil {
			t.Errorf("case %d (%+v): Validate accepted invalid event", i, e)
		}
	}
	good := &Script{Events: []Event{
		{Kind: SiteBlackout, Site: -1, Start: 0, End: 10},
		{Kind: SiteBrownout, Site: 2, Start: 3, End: 7, Severity: 0.5},
		{Kind: WANCut, Site: -1, Peer: -1, Start: 0, End: 2},
		{Kind: SolverSlowdown, Site: -1, Start: 0, End: 10, Severity: 64},
	}}
	if err := good.Validate(3, 10); err != nil {
		t.Fatalf("Validate rejected valid script: %v", err)
	}
}

func TestCapAndForecastFactors(t *testing.T) {
	s := &Script{Events: []Event{
		{Kind: SiteBlackout, Site: 1, Start: 4, End: 8},
		{Kind: SiteBrownout, Site: 0, Start: 2, End: 6, Severity: 0.25},
		{Kind: ForecastBust, Site: -1, Start: 10, End: 12, Severity: 1.5},
	}}
	inj, err := NewInjector(s, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if f := inj.CapFactor(1, 5); f != 0 {
		t.Fatalf("blackout CapFactor = %v, want 0", f)
	}
	if f := inj.CapFactor(1, 8); f != 1 {
		t.Fatalf("after blackout CapFactor = %v, want 1 (half-open window)", f)
	}
	if f := inj.CapFactor(0, 3); f != 0.75 {
		t.Fatalf("brownout CapFactor = %v, want 0.75", f)
	}
	if f := inj.CapFactor(2, 5); f != 1 {
		t.Fatalf("unaffected site CapFactor = %v, want 1", f)
	}

	// Before onset the outage is invisible to forecasts...
	if f := inj.ForecastFactor(1, 3, 5); f != 1 {
		t.Fatalf("pre-onset ForecastFactor = %v, want 1", f)
	}
	// ...once underway, the remaining window is known.
	if f := inj.ForecastFactor(1, 4, 6); f != 0 {
		t.Fatalf("in-flight ForecastFactor = %v, want 0", f)
	}
	// Busts distort predictions regardless of when they are made.
	if f := inj.ForecastFactor(2, 0, 11); f != 1.5 {
		t.Fatalf("bust ForecastFactor = %v, want 1.5", f)
	}
}

func TestSolverInflation(t *testing.T) {
	s := &Script{Events: []Event{
		{Kind: SolverSlowdown, Site: -1, Start: 2, End: 6, Severity: 10},
		{Kind: SolverSlowdown, Site: -1, Start: 4, End: 8, Severity: 50},
	}}
	inj, err := NewInjector(s, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		step int
		want float64
	}{{0, 1}, {2, 10}, {5, 50}, {7, 50}, {8, 1}} {
		if got := inj.SolverInflation(tc.step); got != tc.want {
			t.Errorf("SolverInflation(%d) = %v, want %v", tc.step, got, tc.want)
		}
	}
}

func TestLinkBudget(t *testing.T) {
	s := &Script{Events: []Event{
		{Kind: WANCut, Site: 0, Peer: 1, Start: 0, End: 4},
		{Kind: WANDegraded, Site: 1, Peer: 2, Start: 0, End: 4, Severity: 100},
	}}
	inj, err := NewInjector(s, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b := inj.WANBudget(7); b != nil {
		t.Fatalf("no active WAN fault: budget = %v, want nil", b)
	}
	b := inj.WANBudget(2)
	if b == nil {
		t.Fatal("active WAN fault: budget is nil")
	}
	if b.CanMove(0, 1, 0.001) {
		t.Fatal("cut link must refuse any traffic")
	}
	if !b.CanMove(1, 0, 0) {
		t.Fatal("zero GB always movable")
	}
	// 0<->2 is unconstrained.
	if !b.CanMove(0, 2, 1e9) {
		t.Fatal("unconstrained link must be unlimited")
	}
	// Degraded 1<->2 link: 100 GB this step, shared across directions.
	if got := b.Remaining(1, 2); got != 100 {
		t.Fatalf("Remaining(1,2) = %v, want 100", got)
	}
	b.Consume(2, 1, 60)
	if got := b.Remaining(1, 2); got != 40 {
		t.Fatalf("after consume Remaining = %v, want 40", got)
	}
	if b.CanMove(1, 2, 41) {
		t.Fatal("move past remaining budget allowed")
	}
	if !b.CanMove(1, 2, 40) {
		t.Fatal("move within remaining budget refused")
	}
}

func TestScriptJSONRoundTripAndHash(t *testing.T) {
	s := &Script{Events: []Event{
		{Kind: SiteBlackout, Site: 1, Start: 4, End: 8},
		{Kind: WANDegraded, Site: 0, Peer: 2, Start: 2, End: 5, Severity: 250},
		{Kind: SolverSlowdown, Site: -1, Start: 0, End: 28, Severity: 64},
	}}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Script
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(s.Events) {
		t.Fatalf("round trip lost events: %d != %d", len(got.Events), len(s.Events))
	}
	for i := range got.Events {
		if got.Events[i] != s.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got.Events[i], s.Events[i])
		}
	}
	if got.Hash() != s.Hash() {
		t.Fatal("round trip changed hash")
	}
	// Hash is order-independent (canonical) but content-sensitive.
	rev := &Script{Events: []Event{s.Events[2], s.Events[0], s.Events[1]}}
	if rev.Hash() != s.Hash() {
		t.Fatal("reordering changed hash")
	}
	mut := &Script{Events: append([]Event(nil), s.Events...)}
	mut.Events[0].End = 9
	if mut.Hash() == s.Hash() {
		t.Fatal("mutation kept hash")
	}
	if (&Script{}).Hash() != 0 {
		t.Fatal("empty script must hash to 0")
	}

	// Disk round trip.
	path := filepath.Join(t.TempDir(), "script.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadScript(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Hash() != s.Hash() {
		t.Fatal("disk round trip changed hash")
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("blackout:0@12-16, slow:*@0-28=50,wan_degraded:1:2@3-9=120")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: SiteBlackout, Site: 0, Start: 12, End: 16},
		{Kind: SolverSlowdown, Site: -1, Start: 0, End: 28, Severity: 50},
		{Kind: WANDegraded, Site: 1, Peer: 2, Start: 3, End: 9, Severity: 120},
	}
	if len(s.Events) != len(want) {
		t.Fatalf("got %d events, want %d", len(s.Events), len(want))
	}
	for i := range want {
		if s.Events[i] != want[i] {
			t.Errorf("event %d: %+v != %+v", i, s.Events[i], want[i])
		}
	}
	for _, bad := range []string{"", "blackout:0", "nope:0@1-2", "blackout:0@5", "blackout:x@1-2", "slow:*@0-9=abc"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", bad)
		}
	}
}

func TestOnStepCountsAndEmits(t *testing.T) {
	s := &Script{Events: []Event{
		{Kind: SiteBlackout, Site: 0, Start: 2, End: 4},
		{Kind: SiteBrownout, Site: 1, Start: 2, End: 6, Severity: 0.5},
		{Kind: SolverSlowdown, Site: -1, Start: 5, End: 9, Severity: 8},
	}}
	inj, err := NewInjector(s, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	for step := 0; step < 10; step++ {
		inj.OnStep(step, reg)
	}
	if got := reg.Counter("fault.injected.count"); got != 3 {
		t.Fatalf("fault.injected.count = %v, want 3", got)
	}
	vec := reg.NewCounterVec("fault.injected.by_kind", "kind")
	if got := vec.Value(SiteBlackout.String()); got != 1 {
		t.Fatalf("by_kind[site_blackout] = %v, want 1", got)
	}
	if got := reg.Tracer().Stats(obs.FaultInjected).Count; got != 3 {
		t.Fatalf("FaultInjected events = %d, want 3", got)
	}
}
