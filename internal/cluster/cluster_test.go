package cluster

import (
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

// TestBadVMsLeakNoCapacity pins the accounting fix for malformed VMs: a VM
// whose ID already runs on the site, or whose size is not positive, is
// refused, so it can neither orphan cores nor drive allocation negative.
func TestBadVMsLeakNoCapacity(t *testing.T) {
	withLife := func(vm workload.VM, d time.Duration) workload.VM {
		vm.Lifetime = d
		return vm
	}
	cases := []struct {
		name     string
		run      func(t *testing.T, s *Site)
		alloc    int
		running  int
		serverVM int // VMs across State().Servers
	}{
		{"duplicate arrival departs clean", func(t *testing.T, s *Site) {
			s.Step(t0, 1, []workload.VM{withLife(mkVM(7, 3, 8), 10*time.Minute), withLife(mkVM(7, 3, 8), 10*time.Minute)})
			s.Step(t0.Add(15*time.Minute), 1, nil)
		}, 0, 0, 0},
		{"duplicate arrival is queued, not placed", func(t *testing.T, s *Site) {
			if res := s.Step(t0, 1, []workload.VM{mkVM(7, 3, 8), mkVM(7, 3, 8)}); res.RejectedNew != 1 {
				t.Error("second VM 7 was not refused")
			}
		}, 3, 1, 1},
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
		{"negative cores", func(t *testing.T, s *Site) { s.Admit(mkVM(1, -2, 8)) }, 0, 0, 0},
		{"zero cores", func(t *testing.T, s *Site) { s.Step(t0, 1, []workload.VM{mkVM(1, 0, 8)}) }, 0, 0, 0},
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
// server, and separate expiry and launch passes over the pending queue.
type refSite struct {
	cfg     Config
	servers []refServer
	where   map[int]int
	powered int
	alloc   int
	cursor  int
	pending []pendingVM
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

func (r *refSite) place(vm workload.VM) bool {
	if r.alloc+vm.Cores > floorEps(r.cfg.TargetUtilization*float64(r.powered)) {
		return false
	}
	if _, dup := r.where[vm.ID]; dup || vm.Cores <= 0 || vm.MemoryGB <= 0 {
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
			r.pending = append(r.pending, pendingVM{vm: vm, evicted: true})
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
	for _, p := range r.pending {
		if end := p.vm.End(); end.IsZero() || end.After(now) {
			kept = append(kept, p)
		}
	}
	r.pending = kept
	r.setPower(frac)
	res.OutGB, res.Evicted = r.evictDown()
	for _, vm := range arrivals {
		if !r.place(vm) {
			r.pending = append(r.pending, pendingVM{vm: vm})
			res.RejectedNew++
		}
	}
	still := r.pending[:0]
	for _, p := range r.pending {
		if r.place(p.vm) {
			res.InGB += float64(p.vm.MemoryGB)
			res.Launched++
		} else {
			still = append(still, p)
		}
	}
	r.pending = still
	return res
}

func (r *refSite) setPowerEvict(frac float64) []workload.VM {
	r.setPower(frac)
	before := len(r.pending)
	r.evictDown()
	out := []workload.VM{}
	for _, p := range r.pending[before:] {
		out = append(out, p.vm)
	}
	r.pending = r.pending[:before]
	return out
}

// siteView is the decision-relevant state two site models must share:
// power, allocation, the eviction cursor, the server of every running VM
// and the pending queue (ID*2 + evicted, in order).
type siteView struct {
	powered, alloc, cursor int
	where                  map[int]int
	pending                []int
}

func pendingIDs(q []pendingVM) []int {
	ids := make([]int, len(q))
	for i, p := range q {
		ids[i] = 2 * p.vm.ID
		if p.evicted {
			ids[i]++
		}
	}
	return ids
}

func viewOf(s *Site) siteView {
	return siteView{s.powered, s.alloc, s.evictCursor, s.where, pendingIDs(s.pending)}
}

func (r *refSite) view() siteView {
	return siteView{r.powered, r.alloc, r.cursor, r.where, pendingIDs(r.pending)}
}

// checkIndex verifies the Site's internal bookkeeping: per-server sums
// equal the VMs they hold, each list is sorted by ID, every server sits in
// exactly the free-core bucket its load names, where agrees with the lists,
// alloc is the sum over servers and due bounds every server's departures.
func checkIndex(t *testing.T, s *Site) {
	t.Helper()
	want := newFreeIndex(len(s.servers), s.cfg.CoresPerServer)
	running, alloc := 0, 0
	for i := range s.servers {
		srv := &s.servers[i]
		cores, mem := 0, 0
		for k, vm := range srv.vms {
			cores += vm.Cores
			mem += vm.MemoryGB
			if k > 0 && srv.vms[k-1].ID >= vm.ID {
				t.Fatalf("server %d: VM list not sorted by ID at %d", i, k)
			}
			if at, ok := s.where[vm.ID]; !ok || at != i {
				t.Fatalf("server %d holds VM %d but where says %d (%v)", i, vm.ID, at, ok)
			}
			if end := vm.End(); !end.IsZero() && (srv.due.IsZero() || end.Before(srv.due)) {
				t.Fatalf("server %d: due %v is after VM %d's end %v", i, srv.due, vm.ID, end)
			}
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
	if running != len(s.where) {
		t.Fatalf("servers hold %d VMs, where has %d", running, len(s.where))
	}
	if alloc != s.alloc {
		t.Fatalf("alloc %d, servers sum to %d", s.alloc, alloc)
	}
}

// TestIndexMatchesLinearScan drives the indexed Site, the linear-scan
// oracle and a State→NewFromState copy of the Site through the same seeded
// random sequence of Step, Admit, Remove and SetPowerEvict calls. Every
// call must return the same result on all three and leave every VM on the
// oracle's server, and the Site's index must stay consistent throughout.
// The memory-bound config makes memory, not cores, the binding fit.
func TestIndexMatchesLinearScan(t *testing.T) {
	configs := []struct {
		name  string
		cfg   Config
		ops   int
		vm    func(rng *rand.Rand) (cores, memGB int)
		burst int // most arrivals per Step
	}{
		{"default", DefaultConfig(), 400, func(rng *rand.Rand) (int, int) {
			cores := []int{1, 1, 2, 2, 4, 4, 8, 8, 16, 24, 32, 40, 41}[rng.IntN(13)]
			if rng.IntN(20) == 0 {
				return cores, 512 - rng.IntN(64)
			}
			return cores, cores * (2 << rng.IntN(4))
		}, 80},
		{"memory-bound", Config{Servers: 100, CoresPerServer: 40, MemPerServerGB: 16, TargetUtilization: 0.7}, 1500,
			func(rng *rand.Rand) (int, int) { return 1 + rng.IntN(8), 1 + rng.IntN(17) }, 12},
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
			now := t0
			newVM := func() workload.VM {
				cores, mem := c.vm(rng)
				id := len(ids) + 1
				switch rng.IntN(40) {
				case 0:
					cores = -rng.IntN(3)
				case 1:
					mem = 0
				case 2, 3:
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
			for op := 0; op < c.ops; op++ {
				if op%25 == 0 {
					// Restore from lists in reverse: the wire order of a
					// server's VMs must not matter.
					st := s.State()
					for _, vms := range st.Servers {
						slices.Reverse(vms)
					}
					if cp, err = NewFromState(st); err != nil {
						t.Fatalf("op %d: restoring state: %v", op, err)
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
						arr[i] = newVM()
					}
					now = now.Add(15 * time.Minute)
					got, gotCopy, want = s.Step(now, frac, arr), cp.Step(now, frac, arr), ref.step(now, frac, arr)
				case k < 8:
					vm := newVM()
					oracle := ref.linearBestFit(vm)
					ok := s.Admit(vm)
					got, gotCopy, want = ok, cp.Admit(vm), ref.place(vm)
					if ok && s.where[vm.ID] != oracle {
						t.Fatalf("op %d: VM %d placed on server %d, linear scan picks %d", op, vm.ID, s.where[vm.ID], oracle)
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
			}
			if ref.alloc == 0 || len(ref.pending) == 0 {
				t.Errorf("sequence never loaded the site: alloc %d, pending %d", ref.alloc, len(ref.pending))
			}
		})
	}
}
