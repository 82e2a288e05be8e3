package migration

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	if err := (Model{DirtyRateGBps: -1, BandwidthGBps: 1}).Validate(); err == nil {
		t.Error("negative dirty rate should error")
	}
	if err := (Model{DirtyRateGBps: 0.1}).Validate(); err == nil {
		t.Error("zero bandwidth should error")
	}
}

func TestMigrateIdleVM(t *testing.T) {
	// Zero dirty rate: one copy of memory, no extra rounds, downtime ~ 0.
	m := Model{DirtyRateGBps: 0, BandwidthGBps: 1.25}
	r, err := m.Migrate(10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds != 0 {
		t.Errorf("rounds = %d, want 0", r.Rounds)
	}
	if math.Abs(r.TransferredGB-10) > 1e-9 {
		t.Errorf("transferred = %v, want 10", r.TransferredGB)
	}
	if math.Abs(r.Amplification-1) > 1e-9 {
		t.Errorf("amplification = %v, want 1", r.Amplification)
	}
	if r.DowntimeSec != 0 {
		t.Errorf("downtime = %v, want 0", r.DowntimeSec)
	}
	if !r.Converged {
		t.Error("idle VM should converge")
	}
}

func TestMigrateBusyVM(t *testing.T) {
	// r = 0.08: amplification approaches 1/(1-r) ~ 1.087.
	m := DefaultModel()
	r, err := m.Migrate(32)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Error("r=0.08 should converge")
	}
	if r.Amplification < 1.0 || r.Amplification > 1.2 {
		t.Errorf("amplification = %v, want ~1.087", r.Amplification)
	}
	// Downtime far below stopping the VM and copying all its memory.
	worst := 32 / m.BandwidthGBps
	if r.DowntimeSec >= worst/10 {
		t.Errorf("downtime %v should be tiny vs stop-and-copy %v", r.DowntimeSec, worst)
	}
}

func TestMigrateNonConverging(t *testing.T) {
	// Dirty rate above bandwidth: pre-copy cannot converge; MaxRounds
	// ends it.
	m := Model{DirtyRateGBps: 2, BandwidthGBps: 1, MaxRounds: 5}
	r, err := m.Migrate(8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Converged {
		t.Error("r=2 should not converge")
	}
	if r.Rounds != 5 {
		t.Errorf("rounds = %d, want capped at 5", r.Rounds)
	}
}

func TestMigrateErrors(t *testing.T) {
	if _, err := DefaultModel().Migrate(0); err == nil {
		t.Error("zero memory should error")
	}
	if _, err := (Model{BandwidthGBps: 0}).Migrate(1); err == nil {
		t.Error("invalid model should error")
	}
}

func TestAmplificationApproachesGeometricLimit(t *testing.T) {
	m := Model{DirtyRateGBps: 0.5, BandwidthGBps: 1.25, StopThresholdGB: 1e-6}
	r, err := m.Migrate(64)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (1 - 0.4) // 1.667
	if math.Abs(r.Amplification-want) > 0.05 {
		t.Errorf("amplification = %v, want ~%v", r.Amplification, want)
	}
}

// Property: transferred bytes are at least the memory size and duration is
// positive, for any converging configuration.
func TestPropMigrationBounds(t *testing.T) {
	f := func(mem8, dirty8 uint8) bool {
		mem := float64(mem8%120) + 1
		dirty := float64(dirty8%90) / 100 // 0 to 0.89 of bandwidth
		m := Model{DirtyRateGBps: dirty, BandwidthGBps: 1}
		r, err := m.Migrate(mem)
		if err != nil {
			return false
		}
		if r.TransferredGB < mem-1e-9 {
			return false
		}
		if r.DurationSec <= 0 {
			return false
		}
		// Amplification bounded by the geometric series plus the final
		// copy.
		limit := 1/(1-dirty) + 1
		return r.Amplification <= limit+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
