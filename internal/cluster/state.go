package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/vbcloud/vb/internal/workload"
)

// Site state export for daemon crash recovery. Placement is stateful in
// three ways that a restore must reproduce exactly: which server each VM
// sits on (best-fit consolidation depends on current per-server load), the
// pending queue order (launch order is oldest-first), and the round-robin
// eviction cursor. Serializing only "which VMs run here" would drift from
// the uninterrupted process on the first power drop.

// PendingVMState is one queued VM in wire form.
type PendingVMState struct {
	VM      workload.VM
	Evicted bool
}

// SiteState is the complete serializable state of a Site. It is a plain
// exported struct so callers can gob- or JSON-encode it as part of a larger
// snapshot.
type SiteState struct {
	Config      Config
	Powered     int
	EvictCursor int
	// Servers[i] holds the VMs on server i, sorted by ID so the encoding
	// is deterministic.
	Servers [][]workload.VM
	// Pending preserves queue order (launches are oldest-first).
	Pending []PendingVMState
}

// State captures the site's current state.
func (s *Site) State() SiteState {
	st := SiteState{
		Config:      s.cfg,
		Powered:     s.powered,
		EvictCursor: s.evictCursor,
		Servers:     make([][]workload.VM, len(s.servers)),
		Pending:     make([]PendingVMState, len(s.pending)),
	}
	for i := range s.servers {
		st.Servers[i] = make([]workload.VM, len(s.servers[i].vms))
		copy(st.Servers[i], s.servers[i].vms)
	}
	for i, p := range s.pending {
		st.Pending[i] = PendingVMState{VM: p.vm, Evicted: p.evicted}
	}
	return st
}

// NewFromState rebuilds a Site from a captured state, revalidating server
// capacities and VM uniqueness so a corrupt snapshot fails loudly instead
// of producing an over-packed site.
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
		for _, vm := range st.Servers[i] {
			if vm.Cores <= 0 || vm.MemoryGB <= 0 {
				return nil, fmt.Errorf("cluster: VM %d on server %d has non-positive size", vm.ID, i)
			}
			if _, dup := s.where[vm.ID]; dup {
				return nil, fmt.Errorf("cluster: VM %d appears twice in snapshot", vm.ID)
			}
			srv.allocCores += vm.Cores
			srv.allocMemGB += vm.MemoryGB
			srv.noteEnd(vm.End())
			s.where[vm.ID] = i
		}
		if srv.allocCores > st.Config.CoresPerServer || srv.allocMemGB > st.Config.MemPerServerGB {
			return nil, fmt.Errorf("cluster: server %d over capacity in snapshot (%d cores, %d GB)",
				i, srv.allocCores, srv.allocMemGB)
		}
		srv.vms = slices.Clone(st.Servers[i])
		slices.SortFunc(srv.vms, func(a, b workload.VM) int { return cmp.Compare(a.ID, b.ID) })
		s.alloc += srv.allocCores
		s.free.add(i, st.Config.CoresPerServer-srv.allocCores)
	}
	s.pending = make([]pendingVM, len(st.Pending))
	for i, p := range st.Pending {
		s.pending[i] = pendingVM{vm: p.VM, evicted: p.Evicted}
	}
	return s, nil
}
