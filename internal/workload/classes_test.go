package workload

import "testing"

func TestClassEncodingPinned(t *testing.T) {
	// The integer values are wire format (gob snapshots, JSON request logs):
	// they must never change.
	pins := []struct {
		c    Class
		n    int
		name string
	}{
		{Stable, 0, "stable"},
		{Degradable, 1, "degradable"},
		{RealTime, 2, "realtime"},
		{Interactive, 3, "interactive"},
		{Batch, 4, "batch"},
	}
	for _, p := range pins {
		if int(p.c) != p.n {
			t.Errorf("%s encodes as %d, want %d", p.name, int(p.c), p.n)
		}
		if p.c.String() != p.name {
			t.Errorf("class %d String() = %q, want %q", p.n, p.c.String(), p.name)
		}
		back, err := ParseClass(p.name)
		if err != nil || back != p.c {
			t.Errorf("ParseClass(%q) = %v, %v", p.name, back, err)
		}
		if !p.c.Valid() {
			t.Errorf("%s should be valid", p.name)
		}
	}
	if _, err := ParseClass("spot"); err == nil {
		t.Error("unknown class name should not parse")
	}
	if Class(99).Valid() {
		t.Error("class 99 should be invalid")
	}
	if Class(99).String() == "" {
		t.Error("invalid class String() should still describe itself")
	}
}

func TestClassFirm(t *testing.T) {
	for _, c := range AllClasses {
		want := c != Degradable
		if c.Firm() != want {
			t.Errorf("%v.Firm() = %v, want %v", c, c.Firm(), want)
		}
	}
}

func TestClassPauseWeightOrdering(t *testing.T) {
	// Stable must weigh exactly 1 so legacy MIP objectives are bit-identical.
	if Stable.PauseWeight() != 1 {
		t.Fatalf("Stable weight %v, must be exactly 1", Stable.PauseWeight())
	}
	if Interactive.PauseWeight() != Stable.PauseWeight() {
		t.Error("Interactive should weigh the same as legacy Stable")
	}
	// The degradation ladder: RealTime > Interactive > Batch > Degradable.
	if !(RealTime.PauseWeight() > Interactive.PauseWeight() &&
		Interactive.PauseWeight() > Batch.PauseWeight() &&
		Batch.PauseWeight() > Degradable.PauseWeight()) {
		t.Error("pause weights out of order")
	}
	if Degradable.PauseWeight() != 0 {
		t.Error("Degradable pauses must be free")
	}
}

func TestAllClassesLadderOrder(t *testing.T) {
	if len(AllClasses) != 5 {
		t.Fatalf("AllClasses has %d entries, want 5", len(AllClasses))
	}
	// Most critical first: weights must be non-increasing down the ladder.
	for i := 1; i < len(AllClasses); i++ {
		if AllClasses[i].PauseWeight() > AllClasses[i-1].PauseWeight() {
			t.Errorf("AllClasses[%d]=%v outweighs AllClasses[%d]=%v",
				i, AllClasses[i], i-1, AllClasses[i-1])
		}
	}
}
