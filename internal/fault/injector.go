package fault

import (
	"fmt"
	"math"

	"github.com/vbcloud/vb/internal/obs"
)

// Injector compiles a validated Script against fixed scenario dimensions
// and answers per-step fault queries. All methods are nil-safe and return
// identity values on a nil receiver, so engines thread one pointer through
// unconditionally and fault-free runs stay on the seed code paths.
//
// Every answer is a pure function of (script, step): the injector holds
// no mutable state, so concurrent queries are safe and results are
// bit-identical at any worker count.
type Injector struct {
	script *Script
	sites  int
	steps  int
	hash   uint64

	capacity []Event // SiteBlackout + SiteBrownout
	busts    []Event // ForecastBust
	wan      []Event // WANCut + WANDegraded
	solver   []Event // SolverSlowdown
}

// NewInjector validates the script against the scenario dimensions and
// compiles it. A nil or empty script yields a nil injector (and nil
// error): the no-fault identity.
func NewInjector(s *Script, numSites, steps int) (*Injector, error) {
	if s.Empty() {
		return nil, nil
	}
	if err := s.Validate(numSites, steps); err != nil {
		return nil, err
	}
	inj := &Injector{script: s, sites: numSites, steps: steps, hash: s.Hash()}
	for _, e := range s.Events {
		switch e.Kind {
		case SiteBlackout, SiteBrownout:
			inj.capacity = append(inj.capacity, e)
		case ForecastBust:
			inj.busts = append(inj.busts, e)
		case WANCut, WANDegraded:
			inj.wan = append(inj.wan, e)
		case SolverSlowdown:
			inj.solver = append(inj.solver, e)
		}
	}
	return inj, nil
}

// Dims returns the scenario dimensions the injector was compiled for
// (0, 0 when nil).
func (inj *Injector) Dims() (numSites, steps int) {
	if inj == nil {
		return 0, 0
	}
	return inj.sites, inj.steps
}

// Hash returns the compiled script's digest (0 when nil), used in
// snapshot fingerprints so a restore under a different fault script is
// rejected instead of silently diverging.
func (inj *Injector) Hash() uint64 {
	if inj == nil {
		return 0
	}
	return inj.hash
}

func siteMatches(eventSite, site int) bool { return eventSite == -1 || eventSite == site }

// CapFactor returns the actual-capacity multiplier for a site at a step:
// 0 under a blackout, (1 - severity) per active brownout (compounded),
// 1 otherwise. The identity is exact (v * 1.0 == v bit-for-bit), so a
// nil injector preserves golden results.
func (inj *Injector) CapFactor(site, step int) float64 {
	if inj == nil {
		return 1
	}
	f := 1.0
	for _, e := range inj.capacity {
		if !e.active(step) || !siteMatches(e.Site, site) {
			continue
		}
		if e.Kind == SiteBlackout {
			return 0
		}
		f *= 1 - e.Severity
	}
	return f
}

// ForecastFactor returns the predicted-capacity multiplier for queries
// made at nowStep about a target step. Capacity faults already underway
// (Start <= nowStep) are visible for the remainder of their window — an
// outage strikes unforeseen, then the scheduler plans around it — while
// forecast busts distort every prediction whose target falls in their
// window, modeling systematic forecast error.
func (inj *Injector) ForecastFactor(site, nowStep, step int) float64 {
	if inj == nil {
		return 1
	}
	f := 1.0
	for _, e := range inj.capacity {
		if e.Start > nowStep || !e.active(step) || !siteMatches(e.Site, site) {
			continue
		}
		if e.Kind == SiteBlackout {
			f = 0
			break
		}
		f *= 1 - e.Severity
	}
	for _, e := range inj.busts {
		if e.active(step) && siteMatches(e.Site, site) {
			f *= e.Severity
		}
	}
	return f
}

// SolverInflation returns the solver latency inflation active at a step
// (>= 1; 1 when none). The scheduler derates its node budget by this
// factor, which models a slow solver deterministically.
func (inj *Injector) SolverInflation(step int) float64 {
	if inj == nil {
		return 1
	}
	f := 1.0
	for _, e := range inj.solver {
		if e.active(step) && e.Severity > f {
			f = e.Severity
		}
	}
	return f
}

// WANBudget returns the migration-bandwidth budget for one step, or nil
// when no WAN fault is active (nil = unlimited, the seed path).
func (inj *Injector) WANBudget(step int) *LinkBudget {
	if inj == nil {
		return nil
	}
	var active []Event
	for _, e := range inj.wan {
		if e.active(step) {
			active = append(active, e)
		}
	}
	if len(active) == 0 {
		return nil
	}
	return &LinkBudget{events: active}
}

// OnStep records fault onsets: for every event whose window opens at this
// step it increments fault.injected.count and the fault.injected.by_kind
// vector and emits a FaultInjected trace event. Engines call it once per
// advanced step; a nil injector or registry is a no-op.
func (inj *Injector) OnStep(step int, reg *obs.Registry) {
	if inj == nil || reg == nil {
		return
	}
	var vec *obs.CounterVec
	for _, e := range inj.script.Events {
		if e.Start != step {
			continue
		}
		if vec == nil {
			vec = reg.NewCounterVec("fault.injected.by_kind", "kind")
		}
		reg.Inc("fault.injected.count")
		vec.Inc(e.Kind.String())
		reg.Emit(obs.Event{
			Type: obs.FaultInjected, Step: step, App: -1, Site: e.Site, Dst: e.Peer,
			Detail: fmt.Sprintf("%s sev=%g window=[%d,%d)", e.Kind, e.Severity, e.Start, e.End),
		})
	}
}

// LinkBudget is one step's remaining migration bandwidth under the WAN
// faults active at that step. It is single-goroutine mutable state owned
// by the engine's step loop; a nil budget means unlimited bandwidth.
// Links are undirected: (src, dst) and (dst, src) share a budget.
type LinkBudget struct {
	events []Event
	used   map[[2]int]float64
}

func pairKey(src, dst int) [2]int {
	if src > dst {
		src, dst = dst, src
	}
	return [2]int{src, dst}
}

// linkMatches reports whether a WAN event constrains the (src, dst) link.
func linkMatches(e Event, src, dst int) bool {
	onEnd := func(s int) bool { return s == -1 || s == src || s == dst }
	return onEnd(e.Site) && onEnd(e.Peer)
}

func (b *LinkBudget) linkCap(src, dst int) float64 {
	c := math.Inf(1)
	for _, e := range b.events {
		if !linkMatches(e, src, dst) {
			continue
		}
		if e.Kind == WANCut {
			return 0
		}
		if e.Severity < c {
			c = e.Severity
		}
	}
	return c
}

// Remaining returns the GB still movable between src and dst this step
// (+Inf when unconstrained or nil).
func (b *LinkBudget) Remaining(src, dst int) float64 {
	if b == nil {
		return math.Inf(1)
	}
	c := b.linkCap(src, dst)
	if math.IsInf(c, 1) {
		return c
	}
	r := c - b.used[pairKey(src, dst)]
	if r < 0 {
		return 0
	}
	return r
}

// CanMove reports whether gb more GB fit on the (src, dst) link.
func (b *LinkBudget) CanMove(src, dst int, gb float64) bool {
	return gb <= b.Remaining(src, dst)
}

// Consume charges gb against the link. No-op when the link is
// unconstrained (or the budget nil), so fault-free moves cost nothing.
func (b *LinkBudget) Consume(src, dst int, gb float64) {
	if b == nil || gb <= 0 || math.IsInf(b.linkCap(src, dst), 1) {
		return
	}
	if b.used == nil {
		b.used = make(map[[2]int]float64)
	}
	b.used[pairKey(src, dst)] += gb
}
