// Package cluster simulates a single Virtual Battery site: a renewable farm
// co-located with a mini data center whose compute scales with available
// power (paper §3).
//
// The model follows the paper's setup, except for the eviction order:
//
//   - ~700 servers, 40 cores and 512 GB memory each;
//   - an Azure-style consolidating VM placement policy (best fit);
//   - admission control that rejects VMs beyond a 70% utilization target;
//   - when power decreases, unallocated cores are powered down first and
//     only then are VMs migrated out by a sweep over servers from a cursor.
//     The paper's order is round robin; this sweep skips further ahead
//     after each eviction (see evictDown);
//   - when power increases, previously rejected/evicted VMs launch and are
//     counted as migrations into the site;
//   - migration traffic is estimated by VM memory size.
//
// Run (Fig 4) steps a private site through a power trace and queues the
// VMs it refuses or evicts; it checks the whole trace first, so every VM
// it queues has a positive size and an ID of its own. A multi-site engine
// calls Admit, Remove and SetPowerEvict instead, and its sites never queue.
//
// A site keeps every VM it holds, running or queued, in one slot table
// (slots.go). Server lists and the pending queue name slots, so an
// eviction or a relaunch moves a slot index: it copies no VM and touches
// no map. A server's list is unsorted, so a VM joins it by an append and
// leaves it by swapping the last entry into its place; the queue is one
// linked list per VM shape threaded through the slots (pending.go). Each
// eviction, relaunch and expiry looks its VM's slot up once and hands it
// to every helper. One expiry heap over the held slots finds both the
// running VMs that depart and the queued VMs that expire.
package cluster

import (
	"fmt"
	"math"
	"math/bits"
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

// maxIndexBits bounds a site's free-core index: one bit per server in each
// of CoresPerServer+1 free-core buckets.
const maxIndexBits = 1 << 20

// Validate reports configuration errors. Besides positive sizes and a
// target utilization in (0,1], it bounds the free-core index that a site
// allocates up front: (CoresPerServer+1) × Servers may be at most 2^20
// (1,048,576) bits, against 28,700 for the paper's site. That also bounds
// the server table, so a snapshot cannot make a site allocate without
// limit.
func (c Config) Validate() error {
	if c.Servers <= 0 {
		return fmt.Errorf("cluster: non-positive server count %d", c.Servers)
	}
	if c.CoresPerServer <= 0 {
		return fmt.Errorf("cluster: non-positive cores per server %d", c.CoresPerServer)
	}
	if c.CoresPerServer >= maxIndexBits || c.Servers > maxIndexBits/(c.CoresPerServer+1) {
		return fmt.Errorf("cluster: %d servers of %d cores need a free-core index of more than %d bits",
			c.Servers, c.CoresPerServer, maxIndexBits)
	}
	if c.MemPerServerGB <= 0 {
		return fmt.Errorf("cluster: non-positive memory per server %d", c.MemPerServerGB)
	}
	if !(c.TargetUtilization > 0 && c.TargetUtilization <= 1) {
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
	// vms names the server's running VMs in no particular order: eviction
	// scans it for the smallest ID, and State sorts a copy by ID.
	vms []runningVM
}

// runningVM is a running VM in its server's list: its ID, which decides
// the eviction order, and its slot.
type runningVM struct {
	ID   int
	slot int32
}

// freeIndex buckets servers by free cores. Bucket c is a bitset over server
// indices with bit i set when server i has exactly c free cores, so walking
// the buckets upward from a VM's core count, and each bucket's bits upward,
// visits servers in best-fit order: fewest free cores first, lowest index
// on a tie. A second bitset over the buckets marks the nonempty ones, so
// the walk skips an empty bucket without loading it.
type freeIndex struct {
	words    int      // uint64 words per bucket
	bits     []uint64 // bucket c is bits[c*words : (c+1)*words]
	n        []int    // servers per bucket
	nonempty []uint64 // bit c set when bucket c holds a server
}

func newFreeIndex(servers, cores int) freeIndex {
	words := (servers + 63) / 64
	return freeIndex{
		words:    words,
		bits:     make([]uint64, (cores+1)*words),
		n:        make([]int, cores+1),
		nonempty: make([]uint64, (cores+64)/64),
	}
}

func (x *freeIndex) add(i, free int) {
	x.bits[free*x.words+i/64] |= 1 << (i % 64)
	if x.n[free]++; x.n[free] == 1 {
		x.nonempty[free/64] |= 1 << (free % 64)
	}
}

func (x *freeIndex) remove(i, free int) {
	x.bits[free*x.words+i/64] &^= 1 << (i % 64)
	if x.n[free]--; x.n[free] == 0 {
		x.nonempty[free/64] &^= 1 << (free % 64)
	}
}

// Site is a single VB site simulator. Create with New; the zero value is not
// usable.
type Site struct {
	cfg     Config
	servers []server
	free    freeIndex     // servers by free cores, for best-fit placement
	slots   slotTable     // every VM the site holds, and the expiry heap
	byID    map[int]int32 // VM ID -> its slot, for every held VM
	running int           // running VMs
	powered int           // cores currently powered
	alloc   int           // cores currently allocated (cached sum)
	pending pendingQueue
	// evictCursor is where the next eviction sweep starts (see evictDown).
	evictCursor int
}

// newSite returns a site of empty servers with no power and no index
// entries; callers fill in the servers and then index them.
func newSite(cfg Config) *Site {
	return &Site{
		cfg:     cfg,
		servers: make([]server, cfg.Servers),
		free:    newFreeIndex(cfg.Servers, cfg.CoresPerServer),
		byID:    make(map[int]int32),
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
func (s *Site) Running() int { return s.running }

// Utilization returns allocated cores over total cores.
func (s *Site) Utilization() float64 {
	return float64(s.AllocatedCores()) / float64(s.cfg.TotalCores())
}

// Fragmentation scores how scattered the free cores are, powered or not:
// 1 - (the most free cores on one server / all free cores). It is 0 when
// all free capacity sits on one server and approaches 1 when free cores
// are scattered in unusable slivers. Zero free cores score 0.
func (s *Site) Fragmentation() float64 {
	totalFree, maxFree := 0, 0
	for i := range s.servers {
		free := s.cfg.CoresPerServer - s.servers[i].allocCores
		totalFree += free
		maxFree = max(maxFree, free)
	}
	if totalFree == 0 {
		return 0
	}
	return 1 - float64(maxFree)/float64(totalFree)
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

// fit returns the server a VM would be placed on: the best-fit server, the
// one with the fewest free cores that still fits it in cores and memory,
// the lowest index on a tie. That is the most loaded server that fits,
// maximizing consolidation as Azure's allocator does. limit is the
// admission limit at the current power level. It returns -1 if admission
// control refuses or no server fits. vm's size must be positive.
func (s *Site) fit(vm *workload.VM, limit int) int {
	if s.alloc+vm.Cores > limit {
		return -1
	}
	return s.bestFit(vm)
}

// bestFit returns the best-fit server for vm, or -1 if none fits.
// vm.Cores must be positive.
func (s *Site) bestFit(vm *workload.VM) int {
	x := &s.free
	mask := ^uint64(0) << (vm.Cores % 64)
	for cw := vm.Cores / 64; cw < len(x.nonempty); cw, mask = cw+1, ^uint64(0) {
		for buckets := x.nonempty[cw] & mask; buckets != 0; buckets &= buckets - 1 {
			c := cw*64 + bits.TrailingZeros64(buckets)
			for w, word := range x.bits[c*x.words : (c+1)*x.words] {
				for ; word != 0; word &= word - 1 {
					i := w*64 + bits.TrailingZeros64(word)
					if vm.MemoryGB <= s.cfg.MemPerServerGB-s.servers[i].allocMemGB {
						return i
					}
				}
			}
		}
	}
	return -1
}

// hold stores vm in a slot, queued for now, and indexes its ID, which no
// held VM may share. It returns the slot's index and the slot.
func (s *Site) hold(vm *workload.VM) (int32, *slot) {
	i, sl := s.slots.take(vm)
	s.byID[vm.ID] = i
	return i, sl
}

// run puts slot i, which is sl, on server b and charges it.
func (s *Site) run(i int32, sl *slot, b int) {
	srv := &s.servers[b]
	srv.vms = append(srv.vms, runningVM{sl.vm.ID, i})
	sl.server = int32(b)
	s.running++
	s.charge(b, srv, sl.vm.Cores, sl.vm.MemoryGB)
}

// charge adds cores and memGB (negative to release) to the allocation of
// server b, which is srv, and moves the server to its new free-core
// bucket.
func (s *Site) charge(b int, srv *server, cores, memGB int) {
	s.free.remove(b, s.cfg.CoresPerServer-srv.allocCores)
	srv.allocCores += cores
	srv.allocMemGB += memGB
	s.alloc += cores
	s.free.add(b, s.cfg.CoresPerServer-srv.allocCores)
}

// stopAt takes running slot sl, at position k of its server's list, off
// the server: the list's last entry takes its place. The slot stays held
// and keeps its ID.
func (s *Site) stopAt(sl *slot, k int) {
	b := int(sl.server)
	srv := &s.servers[b]
	last := len(srv.vms) - 1
	srv.vms[k] = srv.vms[last]
	srv.vms = srv.vms[:last]
	sl.server = queuedSlot
	s.running--
	s.charge(b, srv, -sl.vm.Cores, -sl.vm.MemoryGB)
}

// stop takes running slot i, which is sl, off its server.
func (s *Site) stop(i int32, sl *slot) {
	vms := s.servers[sl.server].vms
	k := 0
	for vms[k].slot != i {
		k++
	}
	s.stopAt(sl, k)
}

// release lets go of slot i, which is sl and neither running nor queued,
// and its ID.
func (s *Site) release(i int32, sl *slot) {
	delete(s.byID, sl.vm.ID)
	s.slots.release(i, sl)
}

// Remove deletes a running VM (normal departure). It reports whether the VM
// was running.
func (s *Site) Remove(vmID int) bool {
	i, held := s.byID[vmID]
	if !held || s.slots.at(i).server < 0 {
		return false
	}
	sl := s.slots.at(i)
	s.stop(i, sl)
	s.release(i, sl)
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

// step advances the site to `now`: departs finished VMs, drops queued VMs
// whose lifetime is over, applies the new power fraction (evicting if
// needed), admits fresh arrivals, and launches pending VMs into any
// remaining capacity. It copies each arrival into a slot and keeps no
// reference to the arrivals slice, so the caller may reuse it once step
// returns.
//
// RunObs is its only caller, and validateVMs has checked its whole trace:
// every arrival has a positive size and a non-negative lifetime, and no
// two VMs of the trace share an ID. So no arrival repeats an ID the site
// holds, and neither does any queued VM.
func (s *Site) step(now time.Time, powerFrac float64, arrivals []workload.VM) StepResult {
	var res StepResult

	// 1) Departures: running VMs whose lifetime ended, and queued VMs
	// whose lifetime ended. This runs before the step queues anything: an
	// evicted VM was still running after the departures, and a refused
	// arrival is first checked at the next step.
	res.Departed = s.expire(now)

	// 2) Power change.
	s.setPower(powerFrac)
	// Evict while allocation exceeds powered cores: unallocated cores were
	// implicitly powered down first (they are not counted in allocation).
	s.evictDown(func(i int32, sl *slot) {
		s.pending.push(&s.slots, i, sl)
		res.OutGB += float64(sl.vm.MemoryGB)
		res.Evicted++
	})

	// 3) Fresh arrivals: each takes a slot, running or queued.
	limit := s.admissionLimit()
	for k := range arrivals {
		vm := &arrivals[k]
		best := s.fit(vm, limit)
		i, sl := s.hold(vm)
		if best >= 0 {
			s.run(i, sl, best)
			continue
		}
		s.pending.push(&s.slots, i, sl)
		res.RejectedNew++
	}

	// 4) Launch pending VMs into the remaining headroom, oldest first.
	// Every launch is a migration into the site.
	res.InGB, res.Launched = s.launch(limit)
	return res
}

// expire takes every held VM whose lifetime ended by now off its server or
// out of the queue and returns how many were running. The resulting state
// does not depend on the order, so the expiry heap's order serves.
func (s *Site) expire(now time.Time) (departed int) {
	for i := s.slots.due(now); i >= 0; i = s.slots.due(now) {
		sl := s.slots.at(i)
		if sl.server >= 0 {
			s.stop(i, sl)
			departed++
		} else {
			s.pending.drop(&s.slots, sl)
		}
		s.release(i, sl)
	}
	return departed
}

// launch tries the pending queue oldest first under the admission limit,
// launches what fits and keeps the rest in order. It returns the launched
// memory and count.
//
// It merges the shapes' lists by sequence number through a heap of each
// shape's next untried slot, and a refusal, by admission control or best
// fit, ends that shape's turn: within the pass placements only consume
// cores and memory and the limit is fixed, so every later VM of the shape
// would be refused too, with no side effect. So every placement that can
// succeed happens in queue order against the same site state as a walk
// over the whole queue. A shape whose turn goes on replaces its head in
// place, one sift per VM tried.
func (s *Site) launch(limit int) (inGB float64, launched int) {
	p, t := &s.pending, &s.slots
	h := p.heads[:0]
	for _, l := range p.shapes {
		if l.head >= 0 {
			h.push(shapeHead{t.at(l.head).seq, l.head})
		}
	}
	for len(h) > 0 {
		i := h[0].slot
		sl := t.at(i)
		next := sl.next
		if best := s.fit(&sl.vm, limit); best >= 0 {
			p.drop(t, sl)
			s.run(i, sl, best)
			inGB += float64(sl.vm.MemoryGB)
			launched++
		} else {
			next = -1 // the shape's turn is over
		}
		if next >= 0 {
			h[0] = shapeHead{t.at(next).seq, next}
			h.down()
		} else {
			h.pop()
		}
	}
	p.heads = h
	return inGB, launched
}

// evictDown migrates VMs out until the allocated cores fit under the
// powered cores, handing each evicted slot, still held, to evict in
// eviction order. Each server gives up its smallest ID.
//
// The sweep is meant to be round robin over servers from the cursor, but
// it is not: after each eviction the cursor moves past the server while the
// scan count keeps growing, so the next index jumps 1, 2, 3, ... servers
// further each time. On a full 8-server site with the cursor at 0, eight
// evictions come from servers 0, 2, 5, 1, 6, 4, 3, 3. The Fig 4 results
// depend on this order. The sweep jumps over empty servers through the
// free-core index and visits the others in exactly that order.
func (s *Site) evictDown(evict func(i int32, sl *slot)) {
	n := len(s.servers)
	for s.alloc > s.powered {
		moved := false
		for scan := 0; scan < n; scan++ {
			// Skip the empty servers this scan would step over.
			at := (s.evictCursor + scan) % n
			idx := s.nextOccupied(at)
			if idx < 0 {
				break
			}
			if scan += (idx - at + n) % n; scan >= n {
				break
			}
			// The smallest ID leaves first, for determinism.
			vms := s.servers[idx].vms
			k, least := 0, vms[0].ID
			for j, r := range vms {
				if r.ID < least {
					k, least = j, r.ID
				}
			}
			i := vms[k].slot
			sl := s.slots.at(i)
			s.stopAt(sl, k)
			evict(i, sl)
			moved = true
			s.evictCursor = (idx + 1) % n
			if s.alloc <= s.powered {
				return
			}
		}
		if !moved {
			return // nothing left to evict
		}
	}
}

// nextOccupied returns the first server at or after i, wrapping past the
// last one, that holds a VM, or -1 if none does. Every VM has a positive
// core count, so a server holds one exactly when the free-core index does
// not list it with all its cores free.
func (s *Site) nextOccupied(i int) int {
	x := &s.free
	empty := x.bits[s.cfg.CoresPerServer*x.words:][:x.words]
	last := ^uint64(0) >> (x.words*64 - len(s.servers)) // the last word's server bits
	w, mask := i/64, ^uint64(0)<<(i%64)
	// The first word twice: from bit i on, then, after the wrap, whole.
	for range x.words + 1 {
		word := ^empty[w] & mask
		if w == x.words-1 {
			word &= last
		}
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
		w, mask = (w+1)%x.words, ^uint64(0)
	}
	return -1
}

// Admit places a VM immediately, respecting admission control and server
// fit, without the pending queue of Run's steps. It reports success. Used
// by the VM-level multi-site engine, which decides itself where rejected
// VMs go. It refuses a non-positive size and an ID the site holds, running
// or queued. Every refusal comes before the VM takes a slot, so a refused
// VM costs no more than the tests that refuse it.
func (s *Site) Admit(vm workload.VM) bool {
	// Admission and size refusals need no ID lookup.
	if s.alloc+vm.Cores > s.admissionLimit() || vm.Cores <= 0 || vm.MemoryGB <= 0 {
		return false
	}
	if _, held := s.byID[vm.ID]; held {
		return false
	}
	best := s.bestFit(&vm)
	if best < 0 {
		return false
	}
	i, sl := s.hold(&vm)
	s.run(i, sl, best)
	return true
}

// SetPowerEvict applies a new power fraction and evicts VMs in the sweep
// order of Run's steps until the allocation fits under the powered cores,
// returning the evicted VMs. Unlike a step, it does NOT queue evicted VMs
// for relaunch — the caller (e.g. a multi-site engine) decides where they
// go, and the site lets go of them.
func (s *Site) SetPowerEvict(powerFrac float64) []workload.VM {
	s.setPower(powerFrac)
	evicted := make([]workload.VM, 0)
	s.evictDown(func(i int32, sl *slot) {
		evicted = append(evicted, sl.vm)
		s.release(i, sl)
	})
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
