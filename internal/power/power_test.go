package power

import (
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	if err := DefaultServerModel().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	bad := []ServerModel{
		{IdleWatts: -1, PeakWatts: 100},
		{IdleWatts: 100, PeakWatts: 100},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestDraw(t *testing.T) {
	m := DefaultServerModel()
	idle, err := m.Draw(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if idle != 120 {
		t.Errorf("idle draw = %v, want 120", idle)
	}
	peak, err := m.Draw(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if peak != 400 {
		t.Errorf("peak draw = %v, want 400", peak)
	}
	// Half frequency cuts active power by 8x.
	half, err := m.Draw(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := 120 + 280*0.125
	if math.Abs(half-want) > 1e-9 {
		t.Errorf("half-freq draw = %v, want %v", half, want)
	}
	if _, err := m.Draw(-0.1, 1); err == nil {
		t.Error("bad utilization should error")
	}
	if _, err := m.Draw(0.5, 0); err == nil {
		t.Error("bad frequency should error")
	}
	if _, err := (ServerModel{}).Draw(0.5, 1); err == nil {
		t.Error("invalid model should error")
	}
}

func TestConsolidationSaving(t *testing.T) {
	m := DefaultServerModel()
	// 25 cores allocated, 100 powered, 10 servers x 10 cores.
	cons, spread, err := ConsolidationSaving(m, 25, 100, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Consolidated: 2 full (800 W) + 1 at 50% (260 W) = 1.06 kW.
	if math.Abs(cons-1.06) > 1e-9 {
		t.Errorf("consolidated = %v kW, want 1.06", cons)
	}
	// Spread: 10 servers at 25% util: 10 x (120+280*0.25) = 1.9 kW.
	if math.Abs(spread-1.9) > 1e-9 {
		t.Errorf("spread = %v kW, want 1.9", spread)
	}
	if cons >= spread {
		t.Error("consolidation must save power")
	}
	if _, _, err := ConsolidationSaving(m, 1, 1, 0, 10); err == nil {
		t.Error("bad shape should error")
	}
	if _, _, err := ConsolidationSaving(m, 1000, 10, 2, 10); err == nil {
		t.Error("overful allocation should error")
	}
	// Zero powered servers: spread side is zero.
	_, spread, err = ConsolidationSaving(m, 5, 0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if spread != 0 {
		t.Errorf("spread with no powered servers = %v", spread)
	}
}
