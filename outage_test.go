package vb

import (
	"reflect"
	"testing"

	"github.com/vbcloud/vb/internal/sim"
)

// TestAvailabilityUnderOutage checks the robustness experiment end to end:
// the zero-fault rows are bit-identical to a fault-free run, blackouts of
// load-bearing sites degrade service monotonically, the solver-slowdown
// scenario drives the scheduler down its fallback ladder without any step
// erroring, and the whole table is deterministic.
func TestAvailabilityUnderOutage(t *testing.T) {
	res, err := AvailabilityUnderOutage(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Rows), 7; got != want {
		t.Fatalf("got %d rows, want %d", got, want)
	}

	row := func(label string, p Policy) OutageRow {
		t.Helper()
		r, ok := res.Row(label, p)
		if !ok {
			t.Fatalf("missing row (%q, %v)", label, p)
		}
		return r
	}
	base := row("no faults", PolicyMIP)
	one := row("1-site blackout", PolicyMIP)
	two := row("2-site blackout", PolicyMIP)
	slow := row("4096x solver slowdown", PolicyMIP)
	_ = row("no faults", PolicyGreedy)

	// Golden parity: the zero-fault row must equal an independent fault-free
	// run exactly — the fault hooks are bit-exact identities when idle.
	s := Table1Setup{Seed: DefaultSeed, Days: outageDays}.withDefaults()
	sc, err := table1Scenario(s, table1Start, EuropeanTrio())
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(table1Config(s, PolicyMIP), sc.in)
	if err != nil {
		t.Fatal(err)
	}
	if base.MeanAvailability != r.MeanAvailability() ||
		base.PausedStableCoreSteps != r.PausedStableCoreSteps ||
		base.ShortfallCoreSteps != r.ShortfallCoreSteps ||
		base.TransferGB != r.Transfer.Total() {
		t.Errorf("zero-fault row diverges from fault-free run: %+v vs avail=%v paused=%v short=%v transfer=%v",
			base, r.MeanAvailability(), r.PausedStableCoreSteps, r.ShortfallCoreSteps, r.Transfer.Total())
	}
	if base.Fallbacks != 0 || base.DeadlineExceeded != 0 {
		t.Errorf("zero-fault row reports degradation: fallbacks=%v deadline=%v", base.Fallbacks, base.DeadlineExceeded)
	}

	// Blacking out a load-bearing site must cost availability and force
	// evacuation traffic; losing a second site must not help.
	if one.MeanAvailability >= base.MeanAvailability {
		t.Errorf("1-site blackout availability %v, want < baseline %v", one.MeanAvailability, base.MeanAvailability)
	}
	if one.TransferGB <= base.TransferGB {
		t.Errorf("1-site blackout transfer %v GB, want > baseline %v GB (forced evacuations)", one.TransferGB, base.TransferGB)
	}
	if two.MeanAvailability > one.MeanAvailability {
		t.Errorf("2-site blackout availability %v > 1-site %v", two.MeanAvailability, one.MeanAvailability)
	}

	// The solver-slowdown run must visibly fall down the ladder — and the
	// fact the experiment returned at all means no step errored.
	if slow.Fallbacks == 0 {
		t.Error("solver slowdown triggered no scheduler fallbacks")
	}
	if slow.DeadlineExceeded == 0 {
		t.Error("solver slowdown triggered no deadline/derate truncations")
	}

	// The sweep is a pure function of the seed.
	again, err := AvailabilityUnderOutage(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("AvailabilityUnderOutage is not deterministic at a fixed seed")
	}
}
