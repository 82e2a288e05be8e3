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
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
	// vms holds the server's VMs sorted by ID: eviction takes vms[0], the
	// smallest ID, and State copies the list as it stands.
	vms []workload.VM
	// due is no later than the earliest end among vms, or zero when none
	// of them ends; departures skip the server until due. Removals leave
	// it early, which costs one extra scan and never a missed departure.
	due time.Time
}

// noteEnd lowers due to end when end is the server's earliest departure.
func (srv *server) noteEnd(end time.Time) {
	if !end.IsZero() && (srv.due.IsZero() || end.Before(srv.due)) {
		srv.due = end
	}
}

// freeIndex buckets servers by free cores. Bucket c is a bitset over server
// indices with bit i set when server i has exactly c free cores, so walking
// the buckets upward from a VM's core count, and each bucket's bits upward,
// visits servers in best-fit order: fewest free cores first, lowest index
// on a tie.
type freeIndex struct {
	words int      // uint64 words per bucket
	bits  []uint64 // bucket c is bits[c*words : (c+1)*words]
	n     []int    // servers per bucket, so empty buckets cost one load
}

func newFreeIndex(servers, cores int) freeIndex {
	words := (servers + 63) / 64
	return freeIndex{words: words, bits: make([]uint64, (cores+1)*words), n: make([]int, cores+1)}
}

func (x *freeIndex) add(i, free int) {
	x.bits[free*x.words+i/64] |= 1 << (i % 64)
	x.n[free]++
}

func (x *freeIndex) remove(i, free int) {
	x.bits[free*x.words+i/64] &^= 1 << (i % 64)
	x.n[free]--
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
	free    freeIndex   // servers by free cores, for best-fit placement
	where   map[int]int // vmID -> server index
	powered int         // cores currently powered
	alloc   int         // cores currently allocated (cached sum)
	pending []pendingVM
	// evictCursor implements the paper's round-robin eviction order.
	evictCursor int
}

// newSite returns a site of empty servers with no power and no index
// entries; callers fill in the servers and then index them.
func newSite(cfg Config) *Site {
	return &Site{
		cfg:     cfg,
		servers: make([]server, cfg.Servers),
		free:    newFreeIndex(cfg.Servers, cfg.CoresPerServer),
		where:   make(map[int]int),
	}
}

// New returns an empty, fully powered site.
func New(cfg Config) (*Site, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := newSite(cfg)
	s.powered = cfg.TotalCores()
	for i := range s.servers {
		s.free.add(i, cfg.CoresPerServer)
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

// place puts a VM on the best-fit server: the one with the fewest free
// cores that still fits it in cores and memory, the lowest index on a tie.
// That is the most loaded server that fits, maximizing consolidation as
// Azure's allocator does. limit is the admission limit at the current power
// level. It returns false if admission control refuses, the VM has a
// non-positive size or its ID already runs here, or no server fits.
func (s *Site) place(vm *workload.VM, limit int) bool {
	if s.alloc+vm.Cores > limit {
		return false
	}
	if vm.Cores <= 0 || vm.MemoryGB <= 0 {
		return false
	}
	if _, dup := s.where[vm.ID]; dup {
		return false
	}
	best := s.bestFit(vm)
	if best < 0 {
		return false
	}
	srv := &s.servers[best]
	k, _ := slices.BinarySearchFunc(srv.vms, vm.ID, byID)
	srv.vms = slices.Insert(srv.vms, k, *vm)
	srv.noteEnd(vm.End())
	s.where[vm.ID] = best
	s.charge(best, vm.Cores, vm.MemoryGB)
	return true
}

// bestFit returns the server place picks for vm, or -1 if none fits.
// vm.Cores must be positive.
func (s *Site) bestFit(vm *workload.VM) int {
	x := &s.free
	for c := vm.Cores; c <= s.cfg.CoresPerServer; c++ {
		if x.n[c] == 0 {
			continue
		}
		for w, word := range x.bits[c*x.words : (c+1)*x.words] {
			for ; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				if vm.MemoryGB <= s.cfg.MemPerServerGB-s.servers[i].allocMemGB {
					return i
				}
			}
		}
	}
	return -1
}

// byID orders a server's VMs by ID for binary search.
func byID(vm workload.VM, id int) int { return cmp.Compare(vm.ID, id) }

// charge adds cores and memGB (negative to release) to server i's
// allocation and moves the server to its new free-core bucket.
func (s *Site) charge(i, cores, memGB int) {
	srv := &s.servers[i]
	s.free.remove(i, s.cfg.CoresPerServer-srv.allocCores)
	srv.allocCores += cores
	srv.allocMemGB += memGB
	s.alloc += cores
	s.free.add(i, s.cfg.CoresPerServer-srv.allocCores)
}

// removeAt deletes the VM at position k of server i's list and returns it.
func (s *Site) removeAt(i, k int) workload.VM {
	srv := &s.servers[i]
	vm := srv.vms[k]
	srv.vms = slices.Delete(srv.vms, k, k+1)
	delete(s.where, vm.ID)
	s.charge(i, -vm.Cores, -vm.MemoryGB)
	return vm
}

// Remove deletes a running VM (normal departure). It reports whether the VM
// was running.
func (s *Site) Remove(vmID int) bool {
	i, ok := s.where[vmID]
	if !ok {
		return false
	}
	k, _ := slices.BinarySearchFunc(s.servers[i].vms, vmID, byID)
	s.removeAt(i, k)
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
	res.Departed = s.depart(now)
	// The launch pass drops expired VMs among those queued before this
	// step. VMs this step evicts or refuses queue behind them unchecked:
	// an evicted VM was still running after the departures, and a refused
	// arrival is first checked at the next step.
	queued := len(s.pending)

	// 2) Power change.
	s.setPower(powerFrac)
	// Evict while allocation exceeds powered cores: unallocated cores were
	// implicitly powered down first (they are not counted in allocation).
	res.OutGB, res.Evicted = s.evictDown()

	// 3) Fresh arrivals.
	limit := s.admissionLimit()
	for i := range arrivals {
		if !s.place(&arrivals[i], limit) {
			s.pending = append(s.pending, pendingVM{vm: arrivals[i]})
			res.RejectedNew++
		}
	}

	// 4) One pass over the pending queue, oldest first: drop VMs queued
	// before this step whose lifetime is over, launch the rest into
	// remaining headroom and keep the refused ones in order. Every launch
	// is a migration into the site.
	kept := 0
	for i := range s.pending {
		p := &s.pending[i]
		if i < queued {
			if end := p.vm.End(); !end.IsZero() && !end.After(now) {
				continue
			}
		}
		if s.place(&p.vm, limit) {
			res.InGB += float64(p.vm.MemoryGB)
			res.Launched++
			continue
		}
		if kept != i {
			s.pending[kept] = *p
		}
		kept++
	}
	s.pending = s.pending[:kept]
	return res
}

// depart removes every running VM whose lifetime ended by now and returns
// how many left. The resulting state does not depend on removal order, so
// each server that is due is filtered in place.
func (s *Site) depart(now time.Time) int {
	departed := 0
	for i := range s.servers {
		srv := &s.servers[i]
		if srv.due.IsZero() || srv.due.After(now) {
			continue
		}
		srv.due = time.Time{}
		n, cores, memGB := len(srv.vms), 0, 0
		srv.vms = slices.DeleteFunc(srv.vms, func(vm workload.VM) bool {
			end := vm.End()
			if end.IsZero() || end.After(now) {
				srv.noteEnd(end)
				return false
			}
			delete(s.where, vm.ID)
			cores += vm.Cores
			memGB += vm.MemoryGB
			return true
		})
		if gone := n - len(srv.vms); gone > 0 {
			s.charge(i, -cores, -memGB)
			departed += gone
		}
	}
	return departed
}

// evictDown migrates VMs out, in round-robin order over servers, until the
// allocated cores fit under the powered cores. It returns the traffic and
// eviction count, and queues evicted VMs for relaunch when power returns.
func (s *Site) evictDown() (outGB float64, evicted int) {
	for s.alloc > s.powered {
		moved := false
		// One full round-robin sweep: take one VM from each non-empty
		// server starting at the cursor.
		for scan := 0; scan < len(s.servers); scan++ {
			idx := (s.evictCursor + scan) % len(s.servers)
			if len(s.servers[idx].vms) == 0 {
				continue
			}
			// The smallest ID leaves first, for determinism.
			vm := s.removeAt(idx, 0)
			s.pending = append(s.pending, pendingVM{vm: vm, evicted: true})
			outGB += float64(vm.MemoryGB)
			evicted++
			moved = true
			s.evictCursor = (idx + 1) % len(s.servers)
			if s.alloc <= s.powered {
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
	return s.place(&vm, s.admissionLimit())
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
