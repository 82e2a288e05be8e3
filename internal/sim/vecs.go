package sim

import (
	"strconv"

	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/obs"
)

// labels holds the label strings the engines' metric vecs share: the policy
// name and one precomputed label per site index, so recording a sample
// builds no strings. Class labels are workload.Class.String's constants.
type labels struct {
	policy string
	sites  []string
}

func newLabels(policy core.Policy, numSites int) labels {
	l := labels{policy: policy.String(), sites: make([]string, numSites)}
	for i := range l.sites {
		l.sites[i] = strconv.Itoa(i)
	}
	return l
}

// site labels a site index; a displaced VM's site -1 is "none", so re-homes
// stay distinguishable from site-to-site moves in the flow breakdown.
func (l *labels) site(i int) string {
	if i < 0 {
		return "none"
	}
	return l.sites[i]
}

// simVecs holds the fluid engine's dimensional metrics. Without a registry
// every vec is nil, and recording into a nil vec is a no-op that allocates
// nothing.
type simVecs struct {
	labels
	// planned and forced break migration traffic down by directed
	// src→dst site edge.
	planned *obs.CounterVec
	forced  *obs.CounterVec
	// paused attributes availability violations to the site where the
	// cores stalled.
	paused *obs.CounterVec
	// The by-class vecs break violations and traffic down by SLO class.
	pausedCls     *obs.CounterVec
	shortfallCls  *obs.CounterVec
	transferByCls *obs.CounterVec
}

func newSimVecs(reg *obs.Registry, policy core.Policy, numSites int) simVecs {
	return simVecs{
		labels:        newLabels(policy, numSites),
		planned:       reg.NewCounterVec("sim.planned_gb", "policy", "src", "dst"),
		forced:        reg.NewCounterVec("sim.forced_gb", "policy", "src", "dst"),
		paused:        reg.NewCounterVec("sim.paused_core_steps", "policy", "site"),
		pausedCls:     reg.NewCounterVec("sim.paused_core_steps_by_class", "policy", "class"),
		shortfallCls:  reg.NewCounterVec("sim.shortfall_core_steps_by_class", "policy", "class"),
		transferByCls: reg.NewCounterVec("sim.transfer_gb_by_class", "policy", "class"),
	}
}

// vmVecs is the VM-level engine's counterpart to simVecs.
type vmVecs struct {
	labels
	moves      *obs.CounterVec
	evicted    *obs.CounterVec
	evictedCls *obs.CounterVec
	failedCls  *obs.CounterVec
	movesCls   *obs.CounterVec
}

func newVMVecs(reg *obs.Registry, policy core.Policy, numSites int) vmVecs {
	return vmVecs{
		labels:     newLabels(policy, numSites),
		moves:      reg.NewCounterVec("vmlevel.moves_gb", "policy", "src", "dst"),
		evicted:    reg.NewCounterVec("vmlevel.evicted", "policy", "site"),
		evictedCls: reg.NewCounterVec("vmlevel.evicted_by_class", "policy", "class"),
		failedCls:  reg.NewCounterVec("vmlevel.failed_by_class", "policy", "class"),
		movesCls:   reg.NewCounterVec("vmlevel.moves_gb_by_class", "policy", "class"),
	}
}
