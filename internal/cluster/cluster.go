// Package cluster simulates a single Virtual Battery site: a renewable farm
// co-located with a mini data center whose compute scales with available
// power (paper §3).
//
// The model follows the paper's setup exactly:
//
//   - ~700 servers, 40 cores and 512 GB memory each;
//   - an Azure-style consolidating VM placement policy (best fit);
//   - admission control that rejects VMs beyond a 70% utilization target;
//   - when power decreases, unallocated cores are powered down first and
//     only then are VMs migrated out, in round-robin order over servers;
//   - when power increases, previously rejected/evicted VMs launch and are
//     counted as migrations into the site;
//   - migration traffic is estimated by VM memory size.
package cluster

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/vbcloud/vb/internal/workload"
)

// Config describes the hardware of one VB site.
type Config struct {
	// Servers is the machine count (paper: ~700).
	Servers int
	// CoresPerServer is the core count per machine (paper: 40).
	CoresPerServer int
	// MemPerServerGB is the memory per machine (paper: 512).
	MemPerServerGB int
	// TargetUtilization is the admission-control bound on allocated cores
	// as a fraction of currently powered cores (paper: 0.70).
	TargetUtilization float64
}

// DefaultConfig returns the paper's site configuration.
func DefaultConfig() Config {
	return Config{
		Servers:           700,
		CoresPerServer:    40,
		MemPerServerGB:    512,
		TargetUtilization: 0.70,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Servers <= 0 {
		return fmt.Errorf("cluster: non-positive server count %d", c.Servers)
	}
	if c.CoresPerServer <= 0 {
		return fmt.Errorf("cluster: non-positive cores per server %d", c.CoresPerServer)
	}
	if c.MemPerServerGB <= 0 {
		return fmt.Errorf("cluster: non-positive memory per server %d", c.MemPerServerGB)
	}
	if c.TargetUtilization <= 0 || c.TargetUtilization > 1 {
		return fmt.Errorf("cluster: target utilization %v outside (0,1]", c.TargetUtilization)
	}
	return nil
}

// TotalCores returns the fully powered core count.
func (c Config) TotalCores() int { return c.Servers * c.CoresPerServer }

// server tracks per-machine allocation.
type server struct {
	allocCores int
	allocMemGB int
	vms        map[int]workload.VM
}

// pendingVM is a VM waiting for power: either rejected at arrival or evicted
// by a power drop.
type pendingVM struct {
	vm      workload.VM
	evicted bool // true if it previously ran here (re-launch is a migration in either way)
}

// Site is a single VB site simulator. Create with New; the zero value is not
// usable.
type Site struct {
	cfg     Config
	servers []server
	where   map[int]int // vmID -> server index
	powered int         // cores currently powered
	alloc   int         // cores currently allocated (cached sum)
	pending []pendingVM
	// evictCursor implements the paper's round-robin eviction order.
	evictCursor int
}

// New returns an empty, fully powered site.
func New(cfg Config) (*Site, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Site{
		cfg:     cfg,
		servers: make([]server, cfg.Servers),
		where:   make(map[int]int),
		powered: cfg.TotalCores(),
	}
	for i := range s.servers {
		s.servers[i].vms = make(map[int]workload.VM)
	}
	return s, nil
}

// Config returns the site configuration.
func (s *Site) Config() Config { return s.cfg }

// AllocatedCores returns the cores currently allocated to running VMs.
func (s *Site) AllocatedCores() int { return s.alloc }

// PoweredCores returns the cores currently powered.
func (s *Site) PoweredCores() int { return s.powered }

// Running returns the number of running VMs.
func (s *Site) Running() int { return len(s.where) }

// Pending returns the number of VMs waiting for power.
func (s *Site) Pending() int { return len(s.pending) }

// Utilization returns allocated cores over total cores.
func (s *Site) Utilization() float64 {
	return float64(s.AllocatedCores()) / float64(s.cfg.TotalCores())
}

// floorEps truncates x to an integer the way int(x) does, except that a
// product which float arithmetic landed a hair below an exact integer
// (0.70 × 19600 = 13719.999999999998) is rescued onto it. The epsilon is
// far below one core, so genuine fractional results still truncate.
func floorEps(x float64) int {
	return int(math.Floor(x + 1e-9))
}

// admissionLimit is the maximum allocated cores admission control allows at
// the current power level.
func (s *Site) admissionLimit() int {
	return floorEps(s.cfg.TargetUtilization * float64(s.powered))
}

// place puts a VM on the best-fit server (the most loaded server that still
// fits, maximizing consolidation as Azure's allocator does). It returns
// false if no server fits or admission control refuses.
func (s *Site) place(vm workload.VM) bool {
	if s.AllocatedCores()+vm.Cores > s.admissionLimit() {
		return false
	}
	best := -1
	bestFree := 1 << 30
	for i := range s.servers {
		freeCores := s.cfg.CoresPerServer - s.servers[i].allocCores
		freeMem := s.cfg.MemPerServerGB - s.servers[i].allocMemGB
		if vm.Cores <= freeCores && vm.MemoryGB <= freeMem && freeCores < bestFree {
			best, bestFree = i, freeCores
		}
	}
	if best < 0 {
		return false
	}
	s.servers[best].allocCores += vm.Cores
	s.servers[best].allocMemGB += vm.MemoryGB
	s.servers[best].vms[vm.ID] = vm
	s.where[vm.ID] = best
	s.alloc += vm.Cores
	return true
}

// Remove deletes a running VM (normal departure). It reports whether the VM
// was running.
func (s *Site) Remove(vmID int) bool {
	idx, ok := s.where[vmID]
	if !ok {
		return false
	}
	vm := s.servers[idx].vms[vmID]
	s.servers[idx].allocCores -= vm.Cores
	s.servers[idx].allocMemGB -= vm.MemoryGB
	s.alloc -= vm.Cores
	delete(s.servers[idx].vms, vmID)
	delete(s.where, vmID)
	return true
}

// StepResult reports what happened in one simulation step.
type StepResult struct {
	// OutGB is migration traffic leaving the site (evictions).
	OutGB float64
	// InGB is migration traffic entering the site (launches of previously
	// rejected or evicted VMs).
	InGB float64
	// Evicted, Launched, RejectedNew, Departed count VM events. Launched
	// counts launches from the pending queue; RejectedNew counts fresh
	// arrivals that could not start immediately.
	Evicted     int
	Launched    int
	RejectedNew int
	Departed    int
}

// Step advances the site to `now`: departs finished VMs, applies the new
// power fraction (evicting if needed), admits fresh arrivals, and launches
// pending VMs into any remaining capacity.
func (s *Site) Step(now time.Time, powerFrac float64, arrivals []workload.VM) StepResult {
	var res StepResult

	// 1) Departures: running VMs whose lifetime ended.
	var done []int
	for id, idx := range s.where {
		vm := s.servers[idx].vms[id]
		if end := vm.End(); !end.IsZero() && !end.After(now) {
			done = append(done, id)
		}
	}
	sort.Ints(done) // determinism
	for _, id := range done {
		s.Remove(id)
		res.Departed++
	}
	// Drop pending VMs whose lifetime would already be over.
	kept := s.pending[:0]
	for _, p := range s.pending {
		if end := p.vm.End(); !end.IsZero() && !end.After(now) {
			continue
		}
		kept = append(kept, p)
	}
	s.pending = kept

	// 2) Power change.
	s.setPower(powerFrac)
	// Evict while allocation exceeds powered cores: unallocated cores were
	// implicitly powered down first (they are not counted in allocation).
	res.OutGB, res.Evicted = s.evictDown()

	// 3) Fresh arrivals.
	for _, vm := range arrivals {
		if !s.place(vm) {
			s.pending = append(s.pending, pendingVM{vm: vm})
			res.RejectedNew++
		}
	}

	// 4) Launch pending VMs (oldest first) into remaining headroom. Every
	// launch is a migration into the site.
	still := s.pending[:0]
	for _, p := range s.pending {
		if s.place(p.vm) {
			res.InGB += float64(p.vm.MemoryGB)
			res.Launched++
		} else {
			still = append(still, p)
		}
	}
	s.pending = still
	return res
}

// evictDown migrates VMs out, in round-robin order over servers, until the
// allocated cores fit under the powered cores. It returns the traffic and
// eviction count, and queues evicted VMs for relaunch when power returns.
func (s *Site) evictDown() (outGB float64, evicted int) {
	if len(s.servers) == 0 {
		return 0, 0
	}
	for s.AllocatedCores() > s.powered {
		moved := false
		// One full round-robin sweep: take one VM from each non-empty
		// server starting at the cursor.
		for scan := 0; scan < len(s.servers); scan++ {
			idx := (s.evictCursor + scan) % len(s.servers)
			srv := &s.servers[idx]
			if len(srv.vms) == 0 {
				continue
			}
			// Pick the smallest ID for determinism.
			vmID := -1
			for id := range srv.vms {
				if vmID < 0 || id < vmID {
					vmID = id
				}
			}
			vm := srv.vms[vmID]
			s.Remove(vmID)
			s.pending = append(s.pending, pendingVM{vm: vm, evicted: true})
			outGB += float64(vm.MemoryGB)
			evicted++
			moved = true
			s.evictCursor = (idx + 1) % len(s.servers)
			if s.AllocatedCores() <= s.powered {
				return outGB, evicted
			}
		}
		if !moved {
			break // nothing left to evict
		}
	}
	return outGB, evicted
}

// Admit places a VM immediately, respecting admission control and server
// fit, without the pending-queue machinery of Step. It reports success.
// Used by the VM-level multi-site engine, which decides itself where
// rejected VMs go.
func (s *Site) Admit(vm workload.VM) bool {
	return s.place(vm)
}

// SetPowerEvict applies a new power fraction and evicts VMs round-robin
// until the allocation fits under the powered cores, returning the evicted
// VMs. Unlike Step, evicted VMs are NOT queued for relaunch here — the
// caller (e.g. a multi-site engine) decides where they go.
func (s *Site) SetPowerEvict(powerFrac float64) []workload.VM {
	s.setPower(powerFrac)
	before := len(s.pending)
	s.evictDown()
	// evictDown queues evictions on s.pending; claim them back.
	evicted := make([]workload.VM, 0, len(s.pending)-before)
	for _, p := range s.pending[before:] {
		evicted = append(evicted, p.vm)
	}
	s.pending = s.pending[:before]
	return evicted
}

// setPower powers the fraction powerFrac of the site's cores, clamped to
// [0,1]. NaN compares false against both bounds and would otherwise poison
// s.powered for the rest of the run, so a NaN reading counts as a blackout,
// the conservative interpretation.
func (s *Site) setPower(powerFrac float64) {
	if math.IsNaN(powerFrac) || powerFrac < 0 {
		powerFrac = 0
	}
	if powerFrac > 1 {
		powerFrac = 1
	}
	s.powered = floorEps(powerFrac * float64(s.cfg.TotalCores()))
}

// Holds reports whether the given VM is currently running on this site.
func (s *Site) Holds(vmID int) bool {
	_, ok := s.where[vmID]
	return ok
}
