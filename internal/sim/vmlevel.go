package sim

import (
	"sort"
	"time"

	"github.com/vbcloud/vb/internal/cluster"
	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/trace"
	"github.com/vbcloud/vb/internal/workload"
)

// VMLevelResult reports a high-fidelity run where individual VMs are placed
// on real cluster simulators (server packing, fragmentation, round-robin
// eviction) while the co-scheduler steers aggregate allocations. Comparing
// it against Run's core-granularity results validates that the scheduler's
// fluid model survives contact with discrete VMs.
type VMLevelResult struct {
	Policy core.Policy
	// Transfer is migration traffic per plan step in GB (actual VM memory
	// moved between sites).
	Transfer trace.Series
	// Moves counts inter-site VM migrations.
	Moves int
	// FailedPlacements counts VM-steps where a stable VM could not run
	// anywhere (fragmentation or true capacity shortage).
	FailedPlacements int
	// Fragmentation is the mean end-of-step fragmentation score across
	// sites (see cluster.Snapshot).
	Fragmentation float64
	// Per-SLO-class disruption counters: migration traffic, evictions, and
	// failed placements attributed to each VM's class. Legacy two-class runs
	// record everything under workload.Stable. Snapshots taken before these
	// counters existed restore with the pre-snapshot portion missing.
	MovesGBByClass   map[workload.Class]float64
	EvictionsByClass map[workload.Class]int
	FailedByClass    map[workload.Class]int
}

// RunVMLevel simulates one policy at VM granularity. Apps supplies the
// discrete VMs behind in.Apps (matched by App ID); only firm-class VMs
// (every class but Degradable) are scheduled, as in Run. clusterCfg
// describes each site's hardware. The batch driver feeds a VMEngine each
// demand with its VMs in Start order, which reproduces the streaming
// daemon's decisions exactly (and vice versa).
func RunVMLevel(cfg core.Config, in Input, apps []workload.App, clusterCfg cluster.Config) (VMLevelResult, error) {
	eng, err := NewVMEngine(cfg, in, clusterCfg)
	if err != nil {
		return VMLevelResult{}, err
	}
	vmsByApp := map[int][]workload.VM{}
	for _, a := range apps {
		vmsByApp[a.ID] = a.VMs
	}
	arrivals := make([]AppArrival, 0, len(in.Apps))
	for _, d := range in.Apps {
		arrivals = append(arrivals, AppArrival{Demand: d, VMs: vmsByApp[d.ID]})
	}
	err = drive(&eng.stepper, "sim.vmlevel.run", arrivals, func(a AppArrival) time.Time { return a.Demand.Start },
		func(batch []AppArrival) error {
			_, err := eng.Advance(batch)
			return err
		})
	if err != nil {
		return VMLevelResult{}, err
	}
	return eng.Result(), nil
}

// placeVM starts a VM at the app's most under-target site with room,
// falling back to any site that admits it. It returns the site index or -1.
func placeVM(vm workload.VM, plan core.Plan, t int, sites []*cluster.Site, vmSite map[int]int) int {
	numSites := len(sites)
	type cand struct {
		site  int
		under float64
	}
	cands := make([]cand, 0, numSites)
	for s := 0; s < numSites; s++ {
		under := 0.0
		if plan.Alloc != nil {
			under = plan.Alloc[s][t]
		}
		cands = append(cands, cand{site: s, under: under})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].under > cands[j].under })
	for _, c := range cands {
		if sites[c.site].Admit(vm) {
			return c.site
		}
	}
	return -1
}
