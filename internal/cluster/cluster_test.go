package cluster

import (
	"math"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/workload"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

// smallConfig is a 4-server site for precise hand-checked tests.
func smallConfig() Config {
	return Config{Servers: 4, CoresPerServer: 10, MemPerServerGB: 100, TargetUtilization: 0.7}
}

func mkVM(id, cores, memGB int) workload.VM {
	return workload.VM{ID: id, Cores: cores, MemoryGB: memGB, Arrival: t0}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{},
		{Servers: 1, CoresPerServer: 0, MemPerServerGB: 1, TargetUtilization: 0.5},
		{Servers: 1, CoresPerServer: 1, MemPerServerGB: 0, TargetUtilization: 0.5},
		{Servers: 1, CoresPerServer: 1, MemPerServerGB: 1, TargetUtilization: 0},
		{Servers: 1, CoresPerServer: 1, MemPerServerGB: 1, TargetUtilization: 1.1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if DefaultConfig().TotalCores() != 28000 {
		t.Errorf("default total cores = %d, want 28000", DefaultConfig().TotalCores())
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("invalid config should error")
	}
}

func TestPlacementAndAdmission(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 40 total cores, powered 40, admission limit 28.
	res := s.Step(t0, 1.0, []workload.VM{mkVM(1, 10, 50), mkVM(2, 10, 50), mkVM(3, 8, 40)})
	if res.RejectedNew != 0 {
		t.Fatalf("rejected %d, want 0", res.RejectedNew)
	}
	if s.AllocatedCores() != 28 || s.Running() != 3 {
		t.Fatalf("alloc=%d running=%d", s.AllocatedCores(), s.Running())
	}
	// Admission control: 28/40 = 70% reached; next VM must be rejected.
	res = s.Step(t0.Add(time.Minute), 1.0, []workload.VM{mkVM(4, 1, 1)})
	if res.RejectedNew != 1 || s.Pending() != 1 {
		t.Fatalf("rejected=%d pending=%d, want 1,1", res.RejectedNew, s.Pending())
	}
}

func TestBestFitConsolidates(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Step(t0, 1.0, []workload.VM{mkVM(1, 6, 10)})
	// Second small VM should land on the same server (best fit), not an
	// empty one.
	s.Step(t0.Add(time.Minute), 1.0, []workload.VM{mkVM(2, 4, 10)})
	if s.where[1] != s.where[2] {
		t.Errorf("best fit should consolidate: VM1 on %d, VM2 on %d", s.where[1], s.where[2])
	}
}

func TestPlacementRespectsMemory(t *testing.T) {
	s, err := New(Config{Servers: 1, CoresPerServer: 10, MemPerServerGB: 100, TargetUtilization: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Step(t0, 1.0, []workload.VM{mkVM(1, 1, 90), mkVM(2, 1, 20)})
	if res.RejectedNew != 1 {
		t.Errorf("memory-full server should reject: rejected=%d", res.RejectedNew)
	}
}

func TestPowerDropEvictsRoundRobin(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Fill to 28 cores over 4 servers.
	s.Step(t0, 1.0, []workload.VM{
		mkVM(1, 7, 70), mkVM(2, 7, 70), mkVM(3, 7, 70), mkVM(4, 7, 70),
	})
	if s.AllocatedCores() != 28 {
		t.Fatalf("alloc = %d", s.AllocatedCores())
	}
	// Drop power to 50% = 20 powered cores; must evict 2 VMs (28->14).
	res := s.Step(t0.Add(15*time.Minute), 0.5, nil)
	if res.Evicted != 2 {
		t.Fatalf("evicted = %d, want 2", res.Evicted)
	}
	if res.OutGB != 140 {
		t.Errorf("out traffic = %v, want 140 (2 x 70GB)", res.OutGB)
	}
	if s.AllocatedCores() > 20 {
		t.Errorf("alloc %d exceeds powered 20", s.AllocatedCores())
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
	// Round-robin: the two evictions come from different servers.
	// (All four servers held one VM each, so evicting two from one server
	// is impossible here by construction; verify spread via remaining.)
	nonEmpty := 0
	for i := range s.servers {
		if len(s.servers[i].vms) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 2 {
		t.Errorf("expected 2 servers still occupied, got %d", nonEmpty)
	}
}

func TestPowerRecoveryRelaunches(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Step(t0, 1.0, []workload.VM{mkVM(1, 7, 70), mkVM(2, 7, 70), mkVM(3, 7, 70), mkVM(4, 7, 70)})
	s.Step(t0.Add(15*time.Minute), 0.5, nil)
	// Restore full power: both pending VMs relaunch; traffic counted in.
	res := s.Step(t0.Add(30*time.Minute), 1.0, nil)
	if res.Launched != 2 {
		t.Fatalf("launched = %d, want 2", res.Launched)
	}
	if res.InGB != 140 {
		t.Errorf("in traffic = %v, want 140", res.InGB)
	}
	if s.Running() != 4 || s.Pending() != 0 {
		t.Errorf("running=%d pending=%d", s.Running(), s.Pending())
	}
}

func TestPowerAbsorbedByHeadroom(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 14 cores allocated of 40; a drop to 50% (20 powered) costs nothing.
	s.Step(t0, 1.0, []workload.VM{mkVM(1, 7, 70), mkVM(2, 7, 70)})
	res := s.Step(t0.Add(15*time.Minute), 0.5, nil)
	if res.Evicted != 0 || res.OutGB != 0 {
		t.Errorf("headroom should absorb drop: %+v", res)
	}
}

func TestDepartures(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	vm := mkVM(1, 5, 50)
	vm.Lifetime = 10 * time.Minute
	s.Step(t0, 1.0, []workload.VM{vm})
	if s.Running() != 1 {
		t.Fatal("VM should be running")
	}
	res := s.Step(t0.Add(15*time.Minute), 1.0, nil)
	if res.Departed != 1 || s.Running() != 0 {
		t.Errorf("departed=%d running=%d", res.Departed, s.Running())
	}
}

func TestPendingExpires(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Zero power: arrival goes pending.
	vm := mkVM(1, 5, 50)
	vm.Lifetime = 10 * time.Minute
	s.Step(t0, 0, []workload.VM{vm})
	if s.Pending() != 1 {
		t.Fatal("VM should be pending")
	}
	// By the time power returns the lifetime has passed: dropped, no
	// phantom launch.
	res := s.Step(t0.Add(30*time.Minute), 1.0, nil)
	if res.Launched != 0 || s.Pending() != 0 || s.Running() != 0 {
		t.Errorf("expired pending VM mishandled: %+v", res)
	}
}

func TestRemoveUnknown(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Remove(99) {
		t.Error("removing unknown VM should report false")
	}
}

func TestPowerFracClamped(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Step(t0, -0.5, nil)
	if s.PoweredCores() != 0 {
		t.Errorf("negative power should clamp to 0, got %d", s.PoweredCores())
	}
	s.Step(t0.Add(time.Minute), 2.0, nil)
	if s.PoweredCores() != 40 {
		t.Errorf("overpower should clamp to total, got %d", s.PoweredCores())
	}
	s.Step(t0.Add(2*time.Minute), math.NaN(), nil)
	if s.PoweredCores() != 0 {
		t.Errorf("NaN power should count as a blackout, got %d", s.PoweredCores())
	}
}

func TestZeroPowerEvictsEverything(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Step(t0, 1.0, []workload.VM{mkVM(1, 7, 70), mkVM(2, 7, 70)})
	res := s.Step(t0.Add(15*time.Minute), 0, nil)
	if res.Evicted != 2 || s.Running() != 0 {
		t.Errorf("zero power should evict all: evicted=%d running=%d", res.Evicted, s.Running())
	}
	if s.Utilization() != 0 {
		t.Errorf("utilization = %v", s.Utilization())
	}
}

func TestConfigAccessor(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Config() != smallConfig() {
		t.Error("Config accessor mismatch")
	}
}

func TestSnapshotEmpty(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Servers != 4 || snap.OccupiedServers != 0 {
		t.Errorf("snapshot servers: %+v", snap)
	}
	if snap.AllocatedCores != 0 || snap.PoweredCores != 40 || snap.FreeCores != 40 {
		t.Errorf("snapshot cores: %+v", snap)
	}
	if snap.MaxFreeCoresOneServer != 10 || snap.MaxFreeMemGBOneServer != 100 {
		t.Errorf("snapshot per-server: %+v", snap)
	}
	// All free capacity spread over 4 servers: fragmentation 1 - 10/40.
	if snap.Fragmentation != 0.75 {
		t.Errorf("fragmentation = %v, want 0.75", snap.Fragmentation)
	}
}

func TestSnapshotConsolidated(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Fill one server completely; best-fit keeps others empty.
	s.Step(t0, 1.0, []workload.VM{mkVM(1, 10, 50)})
	snap := s.Snapshot()
	if snap.OccupiedServers != 1 {
		t.Errorf("occupied = %d, want 1", snap.OccupiedServers)
	}
	if snap.AllocatedCores != 10 {
		t.Errorf("allocated = %d", snap.AllocatedCores)
	}
	// Free cores all on empty servers: 30 free, max single server 10.
	if snap.Fragmentation <= 0.6 || snap.Fragmentation > 0.7 {
		t.Errorf("fragmentation = %v, want 2/3", snap.Fragmentation)
	}
}

func TestSnapshotPowerDown(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Step(t0, 0.25, nil) // 10 powered cores
	snap := s.Snapshot()
	if snap.PoweredCores != 10 || snap.FreeCores != 10 {
		t.Errorf("power-down snapshot: %+v", snap)
	}
}

// TestFloorEpsBoundaries pins the float-truncation fix: products that are
// exact in real arithmetic but land a hair below the integer in floats
// (0.70 × n for many n) must not lose a whole core, while genuinely
// fractional products still truncate.
func TestFloorEpsBoundaries(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0},
		{1, 1},
		{0.7 * 19600, 13720}, // 0.7 is inexact in binary; the product ≈ 13719.999999999998
		{0.7 * 28000, 19600},
		{0.7 * 10, 7},
		{0.35 * 20, 7},
		{0.1 * 30, 3},
		{0.57 * 100, 57},
		{10.5, 10},                   // genuine fraction: truncates
		{6.999, 6},                   // not within epsilon: truncates
		{13719.9999999999995, 13720}, // within epsilon: rescued
	}
	for _, c := range cases {
		if got := floorEps(c.x); got != c.want {
			t.Errorf("floorEps(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestAdmissionLimitExactFraction checks the end-to-end consequence: at
// exact-fraction power levels the admission limit is the exact product, so
// a site filled to precisely 70% of powered cores admits the last VM.
func TestAdmissionLimitExactFraction(t *testing.T) {
	// 19600 powered cores at 0.70 target: limit must be exactly 13720.
	cfg := Config{Servers: 700, CoresPerServer: 40, MemPerServerGB: 512, TargetUtilization: 0.70}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPowerEvict(0.7) // powered = 0.7 × 28000 = 19600 exactly
	if s.PoweredCores() != 19600 {
		t.Fatalf("powered = %d, want 19600", s.PoweredCores())
	}
	if got := s.admissionLimit(); got != 13720 {
		t.Fatalf("admissionLimit = %d, want 13720 (0.70 × 19600)", got)
	}
	// Fill to exactly the limit with 40-core VMs: all must admit.
	id := 1
	for alloc := 0; alloc+40 <= 13720; alloc += 40 {
		if !s.Admit(workload.VM{ID: id, Cores: 40, MemoryGB: 1}) {
			t.Fatalf("VM %d rejected at alloc %d under limit 13720", id, s.AllocatedCores())
		}
		id++
	}
	if s.AllocatedCores() != 13720 {
		t.Fatalf("allocated %d, want 13720", s.AllocatedCores())
	}
	// One more core is over the limit.
	if s.Admit(workload.VM{ID: id, Cores: 1, MemoryGB: 1}) {
		t.Error("VM admitted beyond the 70% limit")
	}
}

// TestSetPowerEvictNonFinite pins the fault-path hardening: a NaN or -Inf
// power reading (e.g. a corrupt telemetry sample multiplied through a fault
// factor) is treated as a blackout, and +Inf clamps to full power. Neither
// may poison the powered-core count.
func TestSetPowerEvictNonFinite(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !s.Admit(mkVM(1, 5, 10)) {
		t.Fatal("setup VM rejected")
	}
	if ev := s.SetPowerEvict(math.NaN()); len(ev) != 1 {
		t.Fatalf("NaN power evicted %d VMs, want 1 (blackout)", len(ev))
	}
	if s.PoweredCores() != 0 {
		t.Fatalf("NaN power left %d cores powered, want 0", s.PoweredCores())
	}
	if ev := s.SetPowerEvict(math.Inf(-1)); len(ev) != 0 || s.PoweredCores() != 0 {
		t.Fatalf("-Inf power: evicted=%d powered=%d, want 0/0", len(ev), s.PoweredCores())
	}
	if ev := s.SetPowerEvict(math.Inf(1)); len(ev) != 0 {
		t.Fatalf("+Inf power evicted %d VMs, want 0", len(ev))
	}
	if s.PoweredCores() != s.cfg.TotalCores() {
		t.Fatalf("+Inf power = %d cores, want full %d", s.PoweredCores(), s.cfg.TotalCores())
	}
}
