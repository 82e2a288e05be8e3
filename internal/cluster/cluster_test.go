package cluster

import (
	"cmp"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
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
		{Servers: 1, CoresPerServer: 1, MemPerServerGB: 1, TargetUtilization: math.NaN()},
		// Past the free-core index bound, (cores+1) × servers <= 2^20.
		{Servers: 64, CoresPerServer: 1 << 14, MemPerServerGB: 1, TargetUtilization: 0.5},
		{Servers: 1<<19 + 1, CoresPerServer: 1, MemPerServerGB: 1, TargetUtilization: 0.5},
		{Servers: 1, CoresPerServer: 1 << 20, MemPerServerGB: 1, TargetUtilization: 0.5},
		{Servers: 1, CoresPerServer: 1 << 31, MemPerServerGB: 1, TargetUtilization: 0.5},
		{Servers: math.MaxInt, CoresPerServer: 40, MemPerServerGB: 1, TargetUtilization: 0.5},
		{Servers: 2, CoresPerServer: math.MaxInt, MemPerServerGB: 1, TargetUtilization: 0.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// At the bound.
	for _, c := range []Config{
		{Servers: 64, CoresPerServer: 1<<14 - 1, MemPerServerGB: 1, TargetUtilization: 0.5},
		{Servers: 1 << 19, CoresPerServer: 1, MemPerServerGB: 1, TargetUtilization: 0.5},
		{Servers: 1, CoresPerServer: 1<<20 - 1, MemPerServerGB: 1, TargetUtilization: 0.5},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("config at the index bound refused: %v", err)
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
	res := s.step(t0, 1.0, []workload.VM{mkVM(1, 10, 50), mkVM(2, 10, 50), mkVM(3, 8, 40)})
	if res.RejectedNew != 0 {
		t.Fatalf("rejected %d, want 0", res.RejectedNew)
	}
	if s.AllocatedCores() != 28 || s.Running() != 3 {
		t.Fatalf("alloc=%d running=%d", s.AllocatedCores(), s.Running())
	}
	// Admission control: 28/40 = 70% reached; next VM must be rejected.
	res = s.step(t0.Add(time.Minute), 1.0, []workload.VM{mkVM(4, 1, 1)})
	if res.RejectedNew != 1 || s.pending.n != 1 {
		t.Fatalf("rejected=%d pending=%d, want 1,1", res.RejectedNew, s.pending.n)
	}
}

func TestBestFitConsolidates(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.step(t0, 1.0, []workload.VM{mkVM(1, 6, 10)})
	// Second small VM should land on the same server (best fit), not an
	// empty one.
	s.step(t0.Add(time.Minute), 1.0, []workload.VM{mkVM(2, 4, 10)})
	if where := whereOf(s); where[1] != where[2] {
		t.Errorf("best fit should consolidate: VM1 on %d, VM2 on %d", where[1], where[2])
	}
}

func TestPlacementRespectsMemory(t *testing.T) {
	s, err := New(Config{Servers: 1, CoresPerServer: 10, MemPerServerGB: 100, TargetUtilization: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	res := s.step(t0, 1.0, []workload.VM{mkVM(1, 1, 90), mkVM(2, 1, 20)})
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
	s.step(t0, 1.0, []workload.VM{
		mkVM(1, 7, 70), mkVM(2, 7, 70), mkVM(3, 7, 70), mkVM(4, 7, 70),
	})
	if s.AllocatedCores() != 28 {
		t.Fatalf("alloc = %d", s.AllocatedCores())
	}
	// Drop power to 50% = 20 powered cores; must evict 2 VMs (28->14).
	res := s.step(t0.Add(15*time.Minute), 0.5, nil)
	if res.Evicted != 2 {
		t.Fatalf("evicted = %d, want 2", res.Evicted)
	}
	if res.OutGB != 140 {
		t.Errorf("out traffic = %v, want 140 (2 x 70GB)", res.OutGB)
	}
	if s.AllocatedCores() > 20 {
		t.Errorf("alloc %d exceeds powered 20", s.AllocatedCores())
	}
	if s.pending.n != 2 {
		t.Errorf("pending = %d, want 2", s.pending.n)
	}
	// Round-robin: the two evictions come from different servers.
	// (All four servers held one VM each, so evicting two from one server
	// is impossible here by construction; verify spread via remaining.)
	nonEmpty := 0
	for _, vms := range s.State().Servers {
		if len(vms) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 2 {
		t.Errorf("expected 2 servers still occupied, got %d", nonEmpty)
	}

	// The sweep is not true round robin: after each eviction the cursor
	// moves past the server but the scan count keeps growing, so the next
	// index jumps 1, 2, 3, ... further. Pin that order on a full 8-server
	// site (two 5-core VMs per server, server k holding IDs 2k+1 and 2k+2):
	// eight evictions come from servers 0, 2, 5, 1, 6, 4, 3, 3, leaving
	// server 7 untouched.
	full, err := New(Config{Servers: 8, CoresPerServer: 10, MemPerServerGB: 100, TargetUtilization: 1})
	if err != nil {
		t.Fatal(err)
	}
	var vms []workload.VM
	for id := 1; id <= 16; id++ {
		vms = append(vms, mkVM(id, 5, 10))
	}
	full.step(t0, 1, vms)
	for k, vms := range full.State().Servers {
		if len(vms) != 2 || vms[0].ID != 2*k+1 || vms[1].ID != 2*k+2 {
			t.Fatalf("server %d holds %v, want VMs %d and %d", k, vms, 2*k+1, 2*k+2)
		}
	}
	res = full.step(t0.Add(15*time.Minute), 0.5, nil)
	got := queueOrder(full)
	if want := []int{1, 5, 11, 3, 13, 9, 7, 8}; res.Evicted != 8 || !slices.Equal(got, want) || full.evictCursor != 4 {
		t.Errorf("evicted %d VMs %v, cursor %d; want 8 VMs %v (servers 0, 2, 5, 1, 6, 4, 3, 3), cursor 4",
			res.Evicted, got, full.evictCursor, want)
	}
}

func TestPowerRecoveryRelaunches(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.step(t0, 1.0, []workload.VM{mkVM(1, 7, 70), mkVM(2, 7, 70), mkVM(3, 7, 70), mkVM(4, 7, 70)})
	s.step(t0.Add(15*time.Minute), 0.5, nil)
	// Restore full power: both pending VMs relaunch; traffic counted in.
	res := s.step(t0.Add(30*time.Minute), 1.0, nil)
	if res.Launched != 2 {
		t.Fatalf("launched = %d, want 2", res.Launched)
	}
	if res.InGB != 140 {
		t.Errorf("in traffic = %v, want 140", res.InGB)
	}
	if s.Running() != 4 || s.pending.n != 0 {
		t.Errorf("running=%d pending=%d", s.Running(), s.pending.n)
	}
}

func TestPowerAbsorbedByHeadroom(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 14 cores allocated of 40; a drop to 50% (20 powered) costs nothing.
	s.step(t0, 1.0, []workload.VM{mkVM(1, 7, 70), mkVM(2, 7, 70)})
	res := s.step(t0.Add(15*time.Minute), 0.5, nil)
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
	s.step(t0, 1.0, []workload.VM{vm})
	if s.Running() != 1 {
		t.Fatal("VM should be running")
	}
	res := s.step(t0.Add(15*time.Minute), 1.0, nil)
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
	s.step(t0, 0, []workload.VM{vm})
	if s.pending.n != 1 {
		t.Fatal("VM should be pending")
	}
	// By the time power returns the lifetime has passed: dropped, no
	// phantom launch.
	res := s.step(t0.Add(30*time.Minute), 1.0, nil)
	if res.Launched != 0 || s.pending.n != 0 || s.Running() != 0 {
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
	s.step(t0, -0.5, nil)
	if s.PoweredCores() != 0 {
		t.Errorf("negative power should clamp to 0, got %d", s.PoweredCores())
	}
	s.step(t0.Add(time.Minute), 2.0, nil)
	if s.PoweredCores() != 40 {
		t.Errorf("overpower should clamp to total, got %d", s.PoweredCores())
	}
	s.step(t0.Add(2*time.Minute), math.NaN(), nil)
	if s.PoweredCores() != 0 {
		t.Errorf("NaN power should count as a blackout, got %d", s.PoweredCores())
	}
}

func TestZeroPowerEvictsEverything(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.step(t0, 1.0, []workload.VM{mkVM(1, 7, 70), mkVM(2, 7, 70)})
	res := s.step(t0.Add(15*time.Minute), 0, nil)
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
	if s.AllocatedCores() != 0 || s.PoweredCores() != 40 {
		t.Errorf("cores: allocated %d, powered %d; want 0, 40", s.AllocatedCores(), s.PoweredCores())
	}
	// All free capacity spread over 4 servers: fragmentation 1 - 10/40.
	if f := s.Fragmentation(); f != 0.75 {
		t.Errorf("fragmentation = %v, want 0.75", f)
	}
}

func TestSnapshotConsolidated(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Fill one server completely; best-fit keeps others empty.
	s.step(t0, 1.0, []workload.VM{mkVM(1, 10, 50)})
	if s.AllocatedCores() != 10 {
		t.Errorf("allocated = %d", s.AllocatedCores())
	}
	// Free cores all on empty servers: 30 free, max single server 10.
	if f := s.Fragmentation(); f <= 0.6 || f > 0.7 {
		t.Errorf("fragmentation = %v, want 2/3", f)
	}
}

func TestSnapshotPowerDown(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.step(t0, 0.25, nil) // 10 powered cores
	if s.PoweredCores() != 10 || s.AllocatedCores() != 0 {
		t.Errorf("power-down: powered %d, allocated %d; want 10, 0", s.PoweredCores(), s.AllocatedCores())
	}
	// Fragmentation counts free cores on unpowered servers too.
	if f := s.Fragmentation(); f != 0.75 {
		t.Errorf("power-down fragmentation = %v, want 0.75", f)
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

// TestBadVMsLeakNoCapacity pins the accounting fix for malformed VMs: Admit
// refuses a VM whose ID the site already holds, running or queued, or whose
// size is not positive, so it can neither orphan cores nor drive
// allocation negative. (Run refuses such VMs in its trace before its first
// step; TestRunRejectsBadVMs checks that.)
func TestBadVMsLeakNoCapacity(t *testing.T) {
	cases := []struct {
		name     string
		run      func(t *testing.T, s *Site)
		alloc    int
		running  int
		serverVM int // VMs across State().Servers
	}{
		{"duplicate admit", func(t *testing.T, s *Site) {
			s.Admit(mkVM(7, 3, 8))
			if s.Admit(mkVM(7, 3, 8)) {
				t.Error("Admit accepted a running ID")
			}
		}, 3, 1, 1},
		{"duplicate admit then remove", func(t *testing.T, s *Site) {
			s.Admit(mkVM(7, 3, 8))
			s.Admit(mkVM(7, 3, 8))
			s.Remove(7)
		}, 0, 0, 0},
		{"admit of a queued ID", func(t *testing.T, s *Site) {
			s.step(t0, 0, []workload.VM{mkVM(7, 3, 8)})
			s.SetPowerEvict(1) // full power, and VM 7 still queued
			if s.pending.n != 1 || s.Admit(mkVM(7, 3, 8)) {
				t.Errorf("Admit accepted the ID of a queued VM (%d queued)", s.pending.n)
			}
		}, 0, 0, 0},
		{"negative cores", func(t *testing.T, s *Site) { s.Admit(mkVM(1, -2, 8)) }, 0, 0, 0},
		{"zero cores", func(t *testing.T, s *Site) { s.Admit(mkVM(1, 0, 8)) }, 0, 0, 0},
		{"zero memory", func(t *testing.T, s *Site) { s.Admit(mkVM(1, 2, 0)) }, 0, 0, 0},
		{"negative memory", func(t *testing.T, s *Site) { s.Admit(mkVM(1, 2, -5)) }, 0, 0, 0},
	}
	for _, c := range cases {
		s, err := New(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		c.run(t, s)
		n := 0
		for _, vms := range s.State().Servers {
			n += len(vms)
		}
		if s.AllocatedCores() != c.alloc || s.Running() != c.running || n != c.serverVM {
			t.Errorf("%s: alloc=%d running=%d state VMs=%d, want %d/%d/%d",
				c.name, s.AllocatedCores(), s.Running(), n, c.alloc, c.running, c.serverVM)
		}
	}
}

// refSite is the packing oracle the indexed Site must reproduce decision
// for decision: a map of VMs per server, a linear best-fit scan over every
// server, and separate expiry and launch passes over the pending queue,
// which holds the VMs refused at arrival or evicted by a power drop.
type refSite struct {
	cfg     Config
	servers []refServer
	where   map[int]int
	powered int
	alloc   int
	cursor  int
	pending []workload.VM
}

type refServer struct {
	cores, memGB int
	vms          map[int]workload.VM
}

func newRefSite(cfg Config) *refSite {
	r := &refSite{cfg: cfg, servers: make([]refServer, cfg.Servers), where: map[int]int{}, powered: cfg.TotalCores()}
	for i := range r.servers {
		r.servers[i].vms = map[int]workload.VM{}
	}
	return r
}

// linearBestFit scans every server for the one with the fewest free cores
// that fits vm, keeping the first on a tie.
func (r *refSite) linearBestFit(vm workload.VM) int {
	best, bestFree := -1, 1<<30
	for i := range r.servers {
		freeCores := r.cfg.CoresPerServer - r.servers[i].cores
		freeMem := r.cfg.MemPerServerGB - r.servers[i].memGB
		if vm.Cores <= freeCores && vm.MemoryGB <= freeMem && freeCores < bestFree {
			best, bestFree = i, freeCores
		}
	}
	return best
}

// admit is Admit: it refuses a non-positive size and an ID the site holds,
// running or queued, and otherwise places vm.
func (r *refSite) admit(vm workload.VM) bool {
	_, running := r.where[vm.ID]
	queued := slices.ContainsFunc(r.pending, func(p workload.VM) bool { return p.ID == vm.ID })
	if running || queued || vm.Cores <= 0 || vm.MemoryGB <= 0 {
		return false
	}
	return r.place(vm)
}

// place runs vm on the best-fit server if admission control allows it and
// a server fits it.
func (r *refSite) place(vm workload.VM) bool {
	if r.alloc+vm.Cores > floorEps(r.cfg.TargetUtilization*float64(r.powered)) {
		return false
	}
	best := r.linearBestFit(vm)
	if best < 0 {
		return false
	}
	r.servers[best].cores += vm.Cores
	r.servers[best].memGB += vm.MemoryGB
	r.servers[best].vms[vm.ID] = vm
	r.where[vm.ID] = best
	r.alloc += vm.Cores
	return true
}

func (r *refSite) remove(id int) bool {
	i, ok := r.where[id]
	if !ok {
		return false
	}
	vm := r.servers[i].vms[id]
	r.servers[i].cores -= vm.Cores
	r.servers[i].memGB -= vm.MemoryGB
	r.alloc -= vm.Cores
	delete(r.servers[i].vms, id)
	delete(r.where, id)
	return true
}

func (r *refSite) setPower(frac float64) {
	if math.IsNaN(frac) || frac < 0 {
		frac = 0
	}
	r.powered = floorEps(math.Min(frac, 1) * float64(r.cfg.TotalCores()))
}

func (r *refSite) evictDown() (outGB float64, evicted int) {
	for r.alloc > r.powered {
		moved := false
		for scan := 0; scan < len(r.servers); scan++ {
			idx := (r.cursor + scan) % len(r.servers)
			srv := &r.servers[idx]
			if len(srv.vms) == 0 {
				continue
			}
			id := -1
			for vid := range srv.vms {
				if id < 0 || vid < id {
					id = vid
				}
			}
			vm := srv.vms[id]
			r.remove(id)
			r.pending = append(r.pending, vm)
			outGB += float64(vm.MemoryGB)
			evicted++
			moved = true
			r.cursor = (idx + 1) % len(r.servers)
			if r.alloc <= r.powered {
				return outGB, evicted
			}
		}
		if !moved {
			break
		}
	}
	return outGB, evicted
}

func (r *refSite) step(now time.Time, frac float64, arrivals []workload.VM) StepResult {
	var res StepResult
	var done []int
	for id, i := range r.where {
		if end := r.servers[i].vms[id].End(); !end.IsZero() && !end.After(now) {
			done = append(done, id)
		}
	}
	for _, id := range done {
		r.remove(id)
		res.Departed++
	}
	kept := r.pending[:0]
	for _, vm := range r.pending {
		if end := vm.End(); end.IsZero() || end.After(now) {
			kept = append(kept, vm)
		}
	}
	r.pending = kept
	r.setPower(frac)
	res.OutGB, res.Evicted = r.evictDown()
	for _, vm := range arrivals {
		if !r.place(vm) {
			r.pending = append(r.pending, vm)
			res.RejectedNew++
		}
	}
	still := r.pending[:0]
	for _, vm := range r.pending {
		if r.place(vm) {
			res.InGB += float64(vm.MemoryGB)
			res.Launched++
		} else {
			still = append(still, vm)
		}
	}
	r.pending = still
	return res
}

func (r *refSite) setPowerEvict(frac float64) []workload.VM {
	r.setPower(frac)
	before := len(r.pending)
	r.evictDown()
	out := append([]workload.VM{}, r.pending[before:]...)
	r.pending = r.pending[:before]
	return out
}

// siteView is the decision-relevant state two site models must share:
// power, allocation, the eviction cursor, the server of every running VM
// and the IDs of the pending queue in order.
type siteView struct {
	powered, alloc, cursor int
	where                  map[int]int
	pending                []int
}

// whereOf maps every running VM's ID to its server, read from the server
// lists.
func whereOf(s *Site) map[int]int {
	where := map[int]int{}
	for i := range s.servers {
		for _, r := range s.servers[i].vms {
			where[r.ID] = i
		}
	}
	return where
}

// queueOrder returns the IDs of the queued VMs in queue order: every shape
// list's slots, sorted by sequence number.
func queueOrder(s *Site) []int {
	var q []*slot
	for _, l := range s.pending.shapes {
		for i := l.head; i >= 0; i = s.slots.at(i).next {
			q = append(q, s.slots.at(i))
		}
	}
	slices.SortFunc(q, func(a, b *slot) int { return cmp.Compare(a.seq, b.seq) })
	ids := make([]int, len(q))
	for k, sl := range q {
		ids[k] = sl.vm.ID
	}
	return ids
}

func viewOf(s *Site) siteView {
	return siteView{s.powered, s.alloc, s.evictCursor, whereOf(s), queueOrder(s)}
}

func (r *refSite) view() siteView {
	ids := make([]int, len(r.pending))
	for k, vm := range r.pending {
		ids[k] = vm.ID
	}
	return siteView{r.powered, r.alloc, r.cursor, r.where, ids}
}

// checkIndex verifies the Site's internal bookkeeping. Per-server sums
// equal the VMs they hold, each list names an ID once and names slots that
// run on that server with that ID, State lists each server's VMs in
// ascending ID order (the wire form), every server sits in exactly the
// free-core bucket its load names, the bitset of nonempty buckets marks
// exactly the buckets that hold a server, and alloc and running are the
// sums over servers. The slot table holds together: every held slot is
// referenced exactly once, by one server list or one shape list of the
// queue, and a free slot by neither; the ID index names exactly the held
// slots, each under its own ID; the expiry heap
// holds exactly the held slots that have an end time, each at its
// recorded position, in heap order.
func checkIndex(t *testing.T, s *Site) {
	t.Helper()
	tb := &s.slots
	inTable := func(i int32) bool { return i >= 0 && i < tb.n }
	refs := make([]int, tb.n)
	want := newFreeIndex(len(s.servers), s.cfg.CoresPerServer)
	running, alloc := 0, 0
	for i := range s.servers {
		srv := &s.servers[i]
		cores, mem := 0, 0
		ids := map[int]bool{}
		for _, r := range srv.vms {
			if ids[r.ID] {
				t.Fatalf("server %d lists VM %d twice", i, r.ID)
			}
			ids[r.ID] = true
			if !inTable(r.slot) {
				t.Fatalf("server %d lists VM %d in slot %d, outside the table's %d", i, r.ID, r.slot, tb.n)
			}
			refs[r.slot]++
			sl := tb.at(r.slot)
			if sl.server != int32(i) || sl.vm.ID != r.ID {
				t.Fatalf("server %d lists VM %d in slot %d, which holds VM %d on server %d", i, r.ID, r.slot, sl.vm.ID, sl.server)
			}
			cores += sl.vm.Cores
			mem += sl.vm.MemoryGB
		}
		if cores != srv.allocCores || mem != srv.allocMemGB {
			t.Fatalf("server %d: sums %d cores %d GB, recorded %d/%d", i, cores, mem, srv.allocCores, srv.allocMemGB)
		}
		if cores > s.cfg.CoresPerServer || mem > s.cfg.MemPerServerGB {
			t.Fatalf("server %d over capacity: %d cores %d GB", i, cores, mem)
		}
		want.add(i, s.cfg.CoresPerServer-cores)
		running += len(srv.vms)
		alloc += cores
	}
	if !slices.Equal(s.free.bits, want.bits) || !slices.Equal(s.free.n, want.n) {
		t.Fatalf("free-core buckets disagree with server loads: counts %v, want %v", s.free.n, want.n)
	}
	if len(s.free.nonempty) != len(want.nonempty) {
		t.Fatalf("bucket bitset has %d words, want %d", len(s.free.nonempty), len(want.nonempty))
	}
	for c := range 64 * len(s.free.nonempty) {
		set := s.free.nonempty[c/64]>>(c%64)&1 == 1
		if holds := c < len(want.n) && want.n[c] > 0; set != holds {
			t.Fatalf("bucket bitset marks bucket %d %v, but the rebuilt bucket counts are %v", c, set, want.n)
		}
	}
	for i, vms := range s.State().Servers {
		if !slices.IsSortedFunc(vms, func(a, b workload.VM) int { return cmp.Compare(a.ID, b.ID) }) {
			t.Fatalf("State lists server %d's VMs out of ID order", i)
		}
	}
	if running != s.running {
		t.Fatalf("servers hold %d VMs, running counts %d", running, s.running)
	}
	if alloc != s.alloc {
		t.Fatalf("alloc %d, servers sum to %d", s.alloc, alloc)
	}

	for si, l := range s.pending.shapes {
		for i, steps := l.head, 0; i >= 0; i, steps = tb.at(i).next, steps+1 {
			if !inTable(i) || steps > int(tb.n) {
				t.Fatalf("shape list %d runs to slot %d after %d steps, outside the table's %d or round a loop", si, i, steps, tb.n)
			}
			refs[i]++
		}
	}
	free := map[int32]bool{}
	for _, i := range tb.free {
		if !inTable(i) || free[i] {
			t.Fatalf("free list names slot %d twice or outside the table's %d", i, tb.n)
		}
		free[i] = true
	}
	held, ends := 0, 0
	for i := int32(0); i < tb.n; i++ {
		sl := tb.at(i)
		if free[i] {
			if refs[i] != 0 || sl.server != freeSlot || sl.seq != 0 || sl.pos != -1 {
				t.Fatalf("free slot %d: %d references, server %d, sequence %d, heap position %d",
					i, refs[i], sl.server, sl.seq, sl.pos)
			}
			continue
		}
		held++
		if refs[i] != 1 || sl.server == freeSlot || (sl.server >= 0) != (sl.seq == 0) {
			t.Fatalf("held slot %d (VM %d): %d references, server %d, sequence %d", i, sl.vm.ID, refs[i], sl.server, sl.seq)
		}
		if o, ok := s.byID[sl.vm.ID]; !ok || o != i {
			t.Fatalf("held slot %d (VM %d): the index names slot %d (%v) for its ID", i, sl.vm.ID, o, ok)
		}
		if end := sl.vm.End(); end.IsZero() {
			if sl.pos != -1 {
				t.Fatalf("slot %d (VM %d) never ends but sits at heap position %d", i, sl.vm.ID, sl.pos)
			}
		} else {
			ends++
			if sl.pos < 0 || int(sl.pos) >= len(tb.ends) || tb.ends[sl.pos] != expiryAt(end, i) {
				t.Fatalf("slot %d (VM %d) ends at %v but records heap position %d", i, sl.vm.ID, end, sl.pos)
			}
		}
	}
	if held != s.running+s.pending.n {
		t.Fatalf("%d held slots for %d running and %d queued VMs", held, s.running, s.pending.n)
	}
	if len(s.byID) != held {
		t.Fatalf("the ID index has %d entries for %d held slots", len(s.byID), held)
	}
	if ends != len(tb.ends) {
		t.Fatalf("expiry heap holds %d keys for %d held slots that end", len(tb.ends), ends)
	}
	for k := 1; k < len(tb.ends); k++ {
		if tb.ends[k].less(tb.ends[(k-1)/2]) {
			t.Fatalf("expiry heap out of order at %d", k)
		}
	}
}

// TestIndexMatchesLinearScan drives the indexed Site, the linear-scan
// oracle and a State→NewFromState copy of the Site through the same seeded
// random sequence of step, Admit, Remove and SetPowerEvict calls. Every
// call must return the same result on all three and leave every VM on the
// oracle's server, and the Site's index must stay consistent throughout.
// Step arrivals get fresh IDs and positive sizes, as Run gives them; Admit
// and Remove also get repeated IDs and non-positive sizes. Every 25
// operations, and at each operation after until the copy is replaced, the
// Site's state must restore to the same state. State leaves the queue out,
// so the restored site replaces the copy only when the queue is empty;
// otherwise the copy steps on in lockstep. The memory-bound config makes
// memory, not cores, the binding fit. The queue-heavy config runs 130
// servers (three occupancy words, the last one partial) through bursts of
// three shapes, so the pending queue must pass minQueue VMs.
func TestIndexMatchesLinearScan(t *testing.T) {
	configs := []struct {
		name     string
		cfg      Config
		ops      int
		vm       func(rng *rand.Rand) (cores, memGB int)
		burst    int // most arrivals per Step
		minQueue int // pending VMs the run must reach
	}{
		{"default", DefaultConfig(), 400, func(rng *rand.Rand) (int, int) {
			cores := []int{1, 1, 2, 2, 4, 4, 8, 8, 16, 24, 32, 40, 41}[rng.IntN(13)]
			if rng.IntN(20) == 0 {
				return cores, 512 - rng.IntN(64)
			}
			return cores, cores * (2 << rng.IntN(4))
		}, 80, 0},
		{"memory-bound", Config{Servers: 100, CoresPerServer: 40, MemPerServerGB: 16, TargetUtilization: 0.7}, 1500,
			func(rng *rand.Rand) (int, int) { return 1 + rng.IntN(8), 1 + rng.IntN(17) }, 12, 0},
		{"queue-heavy", Config{Servers: 130, CoresPerServer: 40, MemPerServerGB: 512, TargetUtilization: 1}, 300,
			func(rng *rand.Rand) (int, int) {
				shape := [][2]int{{2, 8}, {4, 16}, {8, 64}}[rng.IntN(3)]
				return shape[0], shape[1]
			}, 180, 1000},
	}
	lifetimes := []time.Duration{0, 15 * time.Minute, 30 * time.Minute, time.Hour, 3 * time.Hour, 12 * time.Hour}
	fracs := []float64{0, 0.1, 0.25, 0.5, 0.7, 0.9, 1, 1, 1, math.NaN()}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(15, uint64(c.cfg.MemPerServerGB)))
			s, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefSite(c.cfg)
			cp := s
			var ids []int // every ID issued so far
			now, peak := t0, 0
			// newVM returns a VM with a fresh ID and a positive size,
			// or, if bad, one that may repeat an ID or have a
			// non-positive size.
			newVM := func(bad bool) workload.VM {
				cores, mem := c.vm(rng)
				id := len(ids) + 1
				switch k := rng.IntN(40); {
				case !bad:
				case k == 0:
					cores = -rng.IntN(3)
				case k == 1:
					mem = 0
				case k < 4:
					if len(ids) > 0 {
						id = ids[rng.IntN(len(ids))] // often running or queued: refused
					}
				}
				ids = append(ids, id)
				vm := workload.VM{ID: id, Cores: cores, MemoryGB: mem, Arrival: now, Lifetime: lifetimes[rng.IntN(len(lifetimes))]}
				if rng.IntN(10) == 0 {
					vm.Arrival = now.Add(-time.Hour) // may have ended before it arrives
				}
				return vm
			}
			due := false
			for op := 0; op < c.ops; op++ {
				if due = due || op%25 == 0; due {
					// Restore from lists in reverse: the wire order of a
					// server's VMs must not matter.
					st := s.State()
					for _, vms := range st.Servers {
						slices.Reverse(vms)
					}
					r, err := NewFromState(st)
					if err != nil {
						t.Fatalf("op %d: restoring state: %v", op, err)
					}
					if !reflect.DeepEqual(r.State(), s.State()) {
						t.Fatalf("op %d: the restored site's state differs", op)
					}
					if s.pending.n == 0 {
						cp, due = r, false
					}
				}
				var got, gotCopy, want any
				switch k := rng.IntN(10); {
				case k < 5:
					frac := fracs[rng.IntN(len(fracs))]
					if rng.IntN(2) == 0 {
						frac = rng.Float64()
					}
					arr := make([]workload.VM, rng.IntN(c.burst+1))
					for i := range arr {
						arr[i] = newVM(false)
					}
					now = now.Add(15 * time.Minute)
					got, gotCopy, want = s.step(now, frac, arr), cp.step(now, frac, arr), ref.step(now, frac, arr)
				case k < 8:
					vm := newVM(true)
					oracle := ref.linearBestFit(vm)
					ok := s.Admit(vm)
					got, gotCopy, want = ok, cp.Admit(vm), ref.admit(vm)
					if at := whereOf(s)[vm.ID]; ok && at != oracle {
						t.Fatalf("op %d: VM %d placed on server %d, linear scan picks %d", op, vm.ID, at, oracle)
					}
				case k < 9:
					id := 0
					if len(ids) > 0 {
						id = ids[rng.IntN(len(ids))]
					}
					got, gotCopy, want = s.Remove(id), cp.Remove(id), ref.remove(id)
				default:
					frac := rng.Float64()
					got, gotCopy, want = s.SetPowerEvict(frac), cp.SetPowerEvict(frac), ref.setPowerEvict(frac)
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotCopy, want) {
					t.Fatalf("op %d: site %+v, restored copy %+v, oracle %+v", op, got, gotCopy, want)
				}
				if v := viewOf(s); !reflect.DeepEqual(v, ref.view()) || !reflect.DeepEqual(viewOf(cp), v) {
					t.Fatalf("op %d: site, restored copy and oracle states diverge", op)
				}
				checkIndex(t, s)
				checkIndex(t, cp)
				checkQueue(t, s)
				checkQueue(t, cp)
				peak = max(peak, s.pending.n)
			}
			if ref.alloc == 0 || len(ref.pending) == 0 {
				t.Errorf("sequence never loaded the site: alloc %d, pending %d", ref.alloc, len(ref.pending))
			}
			if peak < c.minQueue {
				t.Errorf("pending queue peaked at %d VMs, want at least %d", peak, c.minQueue)
			}
		})
	}
}
