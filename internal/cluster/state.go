package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/vbcloud/vb/internal/workload"
)

// Site state export for daemon crash recovery. Placement is stateful in
// two ways that a restore must reproduce exactly: which server each VM
// sits on (best-fit consolidation depends on current per-server load) and
// the eviction cursor. Serializing only "which VMs run here" would drift
// from the uninterrupted process on the first power drop.
//
// The state holds no pending queue: only Run's steps queue VMs, and Run
// never hands its site out, so every site a caller can capture has an
// empty queue.

// SiteState is the complete serializable state of a Site that Run does
// not drive: its config, power, eviction cursor and servers. It is a plain
// exported struct so callers can gob- or JSON-encode it as part of a larger
// snapshot.
type SiteState struct {
	Config      Config
	Powered     int
	EvictCursor int
	// Servers[i] holds the VMs on server i, sorted by ID so the encoding
	// is deterministic.
	Servers [][]workload.VM
}

// State captures the site's current state.
func (s *Site) State() SiteState {
	st := SiteState{
		Config:      s.cfg,
		Powered:     s.powered,
		EvictCursor: s.evictCursor,
		Servers:     make([][]workload.VM, len(s.servers)),
	}
	for i := range s.servers {
		vms := make([]workload.VM, len(s.servers[i].vms))
		for k, r := range s.servers[i].vms {
			vms[k] = s.slots.at(r.slot).vm
		}
		slices.SortFunc(vms, func(a, b workload.VM) int { return cmp.Compare(a.ID, b.ID) })
		st.Servers[i] = vms
	}
	return st
}

// NewFromState rebuilds a Site from a captured state, revalidating server
// capacities and VM uniqueness so a corrupt snapshot fails loudly instead
// of producing an over-packed site. Every VM takes a slot under its ID.
func NewFromState(st SiteState) (*Site, error) {
	if err := st.Config.Validate(); err != nil {
		return nil, err
	}
	if len(st.Servers) != st.Config.Servers {
		return nil, fmt.Errorf("cluster: state has %d servers, config says %d", len(st.Servers), st.Config.Servers)
	}
	if st.Powered < 0 || st.Powered > st.Config.TotalCores() {
		return nil, fmt.Errorf("cluster: powered cores %d outside [0,%d]", st.Powered, st.Config.TotalCores())
	}
	if st.EvictCursor < 0 || st.EvictCursor >= st.Config.Servers {
		return nil, fmt.Errorf("cluster: evict cursor %d outside [0,%d)", st.EvictCursor, st.Config.Servers)
	}
	s := newSite(st.Config)
	s.powered = st.Powered
	s.evictCursor = st.EvictCursor
	for i := range s.servers {
		srv := &s.servers[i]
		for k := range st.Servers[i] {
			vm := &st.Servers[i][k]
			if vm.Cores <= 0 || vm.MemoryGB <= 0 {
				return nil, fmt.Errorf("cluster: VM %d on server %d has non-positive size", vm.ID, i)
			}
			if _, dup := s.byID[vm.ID]; dup {
				return nil, fmt.Errorf("cluster: VM %d appears twice in snapshot", vm.ID)
			}
			// Each VM must fit what is left, so the sums cannot overflow.
			if vm.Cores > st.Config.CoresPerServer-srv.allocCores || vm.MemoryGB > st.Config.MemPerServerGB-srv.allocMemGB {
				return nil, fmt.Errorf("cluster: server %d over capacity in snapshot: VM %d (%d cores, %d GB) joins %d cores, %d GB",
					i, vm.ID, vm.Cores, vm.MemoryGB, srv.allocCores, srv.allocMemGB)
			}
			j, sl := s.hold(vm)
			sl.server = int32(i)
			srv.vms = append(srv.vms, runningVM{vm.ID, j})
			srv.allocCores += vm.Cores
			srv.allocMemGB += vm.MemoryGB
		}
		s.running += len(srv.vms)
		s.alloc += srv.allocCores
		s.free.add(i, st.Config.CoresPerServer-srv.allocCores)
	}
	return s, nil
}
