package sim

import (
	"strconv"

	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/obs"
	"github.com/vbcloud/vb/internal/workload"
)

// labels caches the label strings the engines' metric vecs share: the
// policy name, one precomputed label per site index, and lazily one per app
// ID and SLO class, so recording a sample builds no strings.
type labels struct {
	policy  string
	sites   []string
	apps    map[int]string
	classes map[workload.Class]string
}

func newLabels(policy core.Policy, numSites int) labels {
	l := labels{policy: policy.String(), sites: make([]string, numSites),
		apps: map[int]string{}, classes: map[workload.Class]string{}}
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

func (l *labels) app(id int) string {
	s, ok := l.apps[id]
	if !ok {
		s = strconv.Itoa(id)
		l.apps[id] = s
	}
	return s
}

func (l *labels) class(c workload.Class) string {
	s, ok := l.classes[c]
	if !ok {
		s = c.String()
		l.classes[c] = s
	}
	return s
}

// simVecs bundles the fluid engine's dimensional metrics with their label
// cache. A nil *simVecs (no registry) makes every record method a no-op, so
// the hot loop stays branch-light and — critical for the nil-registry
// zero-allocation property — builds no label slices at the call sites.
type simVecs struct {
	labels
	// planned and forced break migration traffic down by directed
	// src→dst site edge; transfer breaks it down by app.
	planned  *obs.CounterVec
	forced   *obs.CounterVec
	transfer *obs.CounterVec
	// paused attributes availability violations to the app and the site
	// where the cores stalled; shortfall attributes unplaced demand to the
	// app (no site: the plan never chose one).
	paused    *obs.CounterVec
	shortfall *obs.CounterVec
	// The by-class vecs break violations and traffic down by SLO class.
	pausedCls     *obs.CounterVec
	shortfallCls  *obs.CounterVec
	transferByCls *obs.CounterVec
}

// newSimVecs returns nil when reg is nil, so callers hold one nil-check at
// construction instead of one per emission.
func newSimVecs(reg *obs.Registry, policy core.Policy, numSites int) *simVecs {
	if reg == nil {
		return nil
	}
	return &simVecs{
		labels:        newLabels(policy, numSites),
		planned:       reg.NewCounterVec("sim.planned_gb", "policy", "src", "dst"),
		forced:        reg.NewCounterVec("sim.forced_gb", "policy", "src", "dst"),
		transfer:      reg.NewCounterVec("sim.transfer_gb", "policy", "app"),
		paused:        reg.NewCounterVec("sim.paused_core_steps", "policy", "app", "site"),
		shortfall:     reg.NewCounterVec("sim.shortfall_core_steps", "policy", "app"),
		pausedCls:     reg.NewCounterVec("sim.paused_core_steps_by_class", "policy", "class"),
		shortfallCls:  reg.NewCounterVec("sim.shortfall_core_steps_by_class", "policy", "class"),
		transferByCls: reg.NewCounterVec("sim.transfer_gb_by_class", "policy", "class"),
	}
}

// move records one core move, a planned reallocation or a forced
// migration (ty).
func (v *simVecs) move(ty obs.EventType, app, src, dst int, gb float64) {
	if v == nil {
		return
	}
	edge := v.planned
	if ty == obs.ForcedMigration {
		edge = v.forced
	}
	edge.Add(gb, v.policy, v.sites[src], v.sites[dst])
	v.transfer.Add(gb, v.policy, v.app(app))
}

// pause records stable cores pausing in place at a site.
func (v *simVecs) pause(app, site int, cores float64) {
	if v == nil {
		return
	}
	v.paused.Add(cores, v.policy, v.app(app), v.sites[site])
}

// short records demanded stable cores the plan left unplaced.
func (v *simVecs) short(app int, cores float64) {
	if v == nil {
		return
	}
	v.shortfall.Add(cores, v.policy, v.app(app))
}

// pauseClass records paused core-steps attributed to one SLO class.
func (v *simVecs) pauseClass(c workload.Class, cores float64) {
	if v == nil {
		return
	}
	v.pausedCls.Add(cores, v.policy, v.class(c))
}

// shortClass records shortfall core-steps attributed to one SLO class.
func (v *simVecs) shortClass(c workload.Class, cores float64) {
	if v == nil {
		return
	}
	v.shortfallCls.Add(cores, v.policy, v.class(c))
}

// transferClass records migration traffic attributed to one SLO class.
func (v *simVecs) transferClass(c workload.Class, gb float64) {
	if v == nil {
		return
	}
	v.transferByCls.Add(gb, v.policy, v.class(c))
}

// vmVecs is the VM-level engine's counterpart to simVecs.
type vmVecs struct {
	labels
	moves      *obs.CounterVec
	evicted    *obs.CounterVec
	failed     *obs.CounterVec
	evictedCls *obs.CounterVec
	failedCls  *obs.CounterVec
	movesCls   *obs.CounterVec
}

func newVMVecs(reg *obs.Registry, policy core.Policy, numSites int) *vmVecs {
	if reg == nil {
		return nil
	}
	return &vmVecs{
		labels:     newLabels(policy, numSites),
		moves:      reg.NewCounterVec("vmlevel.moves_gb", "policy", "src", "dst"),
		evicted:    reg.NewCounterVec("vmlevel.evicted", "policy", "site"),
		failed:     reg.NewCounterVec("vmlevel.failed_placements", "policy", "app"),
		evictedCls: reg.NewCounterVec("vmlevel.evicted_by_class", "policy", "class"),
		failedCls:  reg.NewCounterVec("vmlevel.failed_by_class", "policy", "class"),
		movesCls:   reg.NewCounterVec("vmlevel.moves_gb_by_class", "policy", "class"),
	}
}

// move records one inter-site VM migration (src -1 for re-homes) by flow
// and by the VM's SLO class.
func (v *vmVecs) move(c workload.Class, src, dst int, gb float64) {
	if v == nil {
		return
	}
	v.moves.Add(gb, v.policy, v.site(src), v.sites[dst])
	v.movesCls.Add(gb, v.policy, v.class(c))
}

// evict records one power-driven VM eviction by site and SLO class.
func (v *vmVecs) evict(c workload.Class, site int) {
	if v == nil {
		return
	}
	v.evicted.Inc(v.policy, v.sites[site])
	v.evictedCls.Inc(v.policy, v.class(c))
}

// fail records one VM-step where a firm VM could not run anywhere, by app
// and SLO class.
func (v *vmVecs) fail(c workload.Class, app int) {
	if v == nil {
		return
	}
	v.failed.Inc(v.policy, v.app(app))
	v.failedCls.Inc(v.policy, v.class(c))
}
