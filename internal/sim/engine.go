package sim

import (
	"math"
	"sort"
	"time"

	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/obs"
	"github.com/vbcloud/vb/internal/trace"
	"github.com/vbcloud/vb/internal/workload"
)

// Engine is the fluid core-level engine behind Run: the retire → replan →
// admit → reallocate → account loop, advanced one plan step at a time so a
// long-lived process can feed arrivals as they happen instead of handing
// over a complete trace up front. Run is a thin loop over Advance; feeding
// an Engine the batch arrivals in Start order reproduces Run's decisions
// bit-for-bit.
type Engine struct {
	stepper
	vecs simVecs

	active []*appState
	res    Result
}

// appState is one admitted application's live scheduling state.
type appState struct {
	demand  core.AppDemand
	plan    core.Plan
	cur     []float64 // current cores per site
	endStep int
	// weight and shares cache the demand's pause weight and firm-class
	// fractions for the ladder sort and per-class attribution.
	weight float64
	shares []classShare
}

// classShare is one firm class's fraction of an app's stable cores, used to
// attribute pauses, shortfalls, and traffic to SLO classes.
type classShare struct {
	class workload.Class
	frac  float64
}

// firmShares computes a demand's firm-class fractions in ladder order
// (deterministic iteration). Legacy demands reduce to {Stable: 1}.
func firmShares(d core.AppDemand) []classShare {
	bd := d.ClassBreakdown()
	var total float64
	for _, c := range workload.AllClasses {
		if c.Firm() {
			total += bd[c]
		}
	}
	if total <= 0 {
		return nil
	}
	var out []classShare
	for _, c := range workload.AllClasses {
		if c.Firm() && bd[c] > 0 {
			out = append(out, classShare{class: c, frac: bd[c] / total})
		}
	}
	return out
}

// StepReport summarizes what one Advance call did — the per-step decision
// record a daemon logs and serves.
type StepReport struct {
	Step int       `json:"step"`
	Now  time.Time `json:"now"`
	// Admitted lists app IDs admitted this step (in arrival order).
	Admitted []int `json:"admitted,omitempty"`
	// Replans counts daily re-planning invocations this step.
	Replans int `json:"replans,omitempty"`
	// PlannedGB and ForcedGB split this step's migration traffic.
	PlannedGB float64 `json:"planned_gb"`
	ForcedGB  float64 `json:"forced_gb"`
	// TransferGB is the step's total migration traffic.
	TransferGB float64 `json:"transfer_gb"`
	// PausedCoreSteps and ShortfallCoreSteps are this step's availability
	// violations.
	PausedCoreSteps    float64 `json:"paused_core_steps"`
	ShortfallCoreSteps float64 `json:"shortfall_core_steps"`
	// PausedByClass and ShortfallByClass break the violations down by SLO
	// class name (absent when the step had none).
	PausedByClass    map[string]float64 `json:"paused_by_class,omitempty"`
	ShortfallByClass map[string]float64 `json:"shortfall_by_class,omitempty"`
}

// NewEngine builds a stepping engine. Unlike Run, Input.Apps may be empty:
// demands arrive through Advance, each app once. Apps must be fed at (or
// before) the first step whose time reaches their Start, in Start order, to
// match batch semantics.
func NewEngine(cfg core.Config, in Input) (*Engine, error) {
	c, err := newStepper(cfg, in)
	if err != nil {
		return nil, err
	}
	base, T := c.base, c.T
	e := &Engine{
		stepper: c,
		vecs:    newSimVecs(c.reg, cfg.Policy, c.numSites),
		res: Result{
			Policy:           cfg.Policy,
			Transfer:         trace.New(base.Start, base.Step, T),
			PerApp:           make(map[int]float64),
			PerAppPaused:     make(map[int]float64),
			PerAppDemand:     make(map[int]float64),
			InBySite:         make([]trace.Series, c.numSites),
			OutBySite:        make([]trace.Series, c.numSites),
			PausedByClass:    make(map[workload.Class]float64),
			ShortfallByClass: make(map[workload.Class]float64),
			DemandByClass:    make(map[workload.Class]float64),
			TransferByClass:  make(map[workload.Class]trace.Series),
		},
	}
	for i := range e.res.InBySite {
		e.res.InBySite[i] = trace.New(base.Start, base.Step, T)
		e.res.OutBySite[i] = trace.New(base.Start, base.Step, T)
	}
	return e, nil
}

// Result returns the accumulated run result. It is valid at any point;
// after Done it equals what Run would have returned.
func (e *Engine) Result() Result { return e.res }

func (e *Engine) actCap(site, t int) float64 {
	// The fault factor multiplies last: a nil injector returns exactly 1
	// and v*1.0 is bit-exact, so fault-free runs match the seed bit for
	// bit.
	return e.util * e.in.Actual[site].Values[t] * e.in.TotalCores * e.in.Faults.CapFactor(site, t)
}

// Advance executes one plan step: retire finished apps, replan daily,
// admit the given arrivals, execute planned reallocations and forced
// migrations, account pauses and shortfalls. Arrivals are admitted in the
// given order; pass them sorted by Start for batch parity. A batch with an
// invalid or repeated app is refused whole, leaving the engine unchanged.
func (e *Engine) Advance(arrivals []core.AppDemand) (StepReport, error) {
	env, err := e.begin(len(arrivals), func(i int) core.AppDemand { return arrivals[i] })
	if err != nil {
		return StepReport{}, err
	}
	t := env.t
	rep := StepReport{Step: t, Now: env.now}
	res := &e.res
	numSites := e.numSites

	// Retire finished apps.
	keep := e.active[:0]
	for _, a := range e.active {
		if t >= a.endStep {
			continue
		}
		keep = append(keep, a)
	}
	e.active = keep

	if e.replanDue(t) {
		for _, a := range e.active {
			plan, err := e.place(&env, a.demand, a.endStep, a.cur, &a.plan)
			if err != nil {
				return rep, err
			}
			a.plan = plan
			res.Placements++
			rep.Replans++
		}
	}

	// Admit arriving apps.
	for _, d := range arrivals {
		endStep := e.endStep(d)
		if endStep <= t {
			continue // app entirely in the past
		}
		if d.StableCores <= 0 {
			continue // pure-degradable apps never migrate (no traffic)
		}
		plan, err := e.place(&env, d, endStep, nil, nil)
		if err != nil {
			return rep, err
		}
		st := &appState{demand: d, plan: plan, cur: make([]float64, numSites), endStep: endStep,
			weight: d.PauseWeight(), shares: firmShares(d)}
		// Initial placement is free (the VMs boot where scheduled).
		for s := 0; s < numSites; s++ {
			st.cur[s] = plan.Alloc[s][t]
		}
		e.active = append(e.active, st)
		res.Placements++
		rep.Admitted = append(rep.Admitted, d.ID)
	}

	// Current per-site load.
	load := make([]float64, numSites)
	for _, a := range e.active {
		for s := 0; s < numSites; s++ {
			load[s] += a.cur[s]
		}
	}

	// Execute planned reallocations, gated by *actual* headroom at the
	// destination: a planned move into a site that in reality has no power
	// simply does not happen this step (no phantom traffic), and the cores
	// stay at their source until the plan becomes executable.
	for _, a := range e.active {
		if a.plan.Alloc == nil {
			continue
		}
		for dst := 0; dst < numSites; dst++ {
			want := a.plan.Alloc[dst][t] - a.cur[dst]
			// Sub-core wants are LP rounding noise, not real moves.
			if want <= 1e-4 {
				continue
			}
			head := e.actCap(dst, t) - load[dst]
			if head <= 1e-9 {
				continue
			}
			want = math.Min(want, head)
			// Pull cores from sites holding more than their target.
			for src := 0; src < numSites && want > 1e-9; src++ {
				if src == dst {
					continue
				}
				excess := a.cur[src] - a.plan.Alloc[src][t]
				if excess <= 1e-9 {
					continue
				}
				// WAN faults cap the link's per-step traffic: move only
				// what the remaining bandwidth carries (a nil budget has
				// +Inf left); the rest waits at the source for a later step.
				x := math.Min(math.Min(excess, want), env.wb.Remaining(src, dst)/a.demand.MemGBPerCore)
				if x <= 1e-9 {
					continue
				}
				e.move(&env, &rep, obs.PlannedRealloc, a, load, src, dst, x)
				want -= x
			}
		}
	}
	// Degradation ladder: forced migrations drain the cheapest-to-pause
	// apps first (ascending pause weight: Batch before Interactive before
	// RealTime), so whatever cannot move — and therefore pauses — lands on
	// the most tolerant workloads. Equal weights keep admission order
	// (SliceStable); every legacy demand weighs exactly 1, so legacy runs
	// keep the seed decision sequence.
	forcedOrder := append([]*appState(nil), e.active...)
	sort.SliceStable(forcedOrder, func(i, j int) bool {
		return forcedOrder[i].weight < forcedOrder[j].weight
	})
	for s := 0; s < numSites; s++ {
		over := load[s] - e.actCap(s, t)
		if over <= 1e-9 {
			continue
		}
		// All tracked cores are firm (degradable VMs pause in place for
		// free and are not tracked here): migrate the overflow to sites
		// with actual headroom.
		for _, a := range forcedOrder {
			if over <= 1e-9 {
				break
			}
			move := math.Min(a.cur[s], over)
			if move <= 1e-9 {
				continue
			}
			moved := 0.0
			for d := 0; d < numSites && move-moved > 1e-9; d++ {
				if d == s {
					continue
				}
				head := e.actCap(d, t) - load[d]
				if head <= 1e-9 {
					continue
				}
				// A cut or saturated link blocks the rescue: the cores
				// stay and pause below.
				x := math.Min(math.Min(head, move-moved), env.wb.Remaining(s, d)/a.demand.MemGBPerCore)
				if x <= 1e-9 {
					continue
				}
				e.move(&env, &rep, obs.ForcedMigration, a, load, s, d, x)
				moved += x
			}
			// Whatever could not move pauses in place: availability
			// violation.
			rest := move - moved
			if rest > 1e-9 {
				res.PausedStableCoreSteps += rest
				rep.PausedCoreSteps += rest
				res.PerAppPaused[a.demand.ID] += rest
				for _, cs := range a.shares {
					res.PausedByClass[cs.class] += rest * cs.frac
					addClass(&rep.PausedByClass, cs.class, rest*cs.frac)
					e.vecs.pausedCls.Add(rest*cs.frac, e.vecs.policy, cs.class.String())
				}
				e.reg.Emit(obs.Event{Type: obs.StablePause, Step: t, App: a.demand.ID,
					Site: s, Dst: -1, Cores: rest})
				e.vecs.paused.Add(rest, e.vecs.policy, e.vecs.sites[s])
			}
			over -= move
		}
	}
	// Greedy has no forward plan: after forced moves, the VMs stay where
	// they landed. Rewrite the plan's future to the new reality so later
	// steps do not try to "move back".
	if e.cfg.Policy == core.Greedy {
		for _, a := range e.active {
			e.sched.Uncommit(a.plan, t)
			for s := 0; s < numSites; s++ {
				for tt := t; tt < a.endStep; tt++ {
					a.plan.Alloc[s][tt] = a.cur[s]
				}
			}
			e.sched.Commit(a.plan, t)
		}
	}

	// Record scheduler shortfall (stable demand the plan itself left
	// unplaced) and accumulate per-app demand for availability.
	for _, a := range e.active {
		var placed float64
		for s := 0; s < numSites; s++ {
			placed += a.cur[s]
		}
		if gap := a.demand.StableCores - placed; gap > 1e-9 {
			res.ShortfallCoreSteps += gap
			rep.ShortfallCoreSteps += gap
			res.PerAppPaused[a.demand.ID] += gap
			for _, cs := range a.shares {
				res.ShortfallByClass[cs.class] += gap * cs.frac
				addClass(&rep.ShortfallByClass, cs.class, gap*cs.frac)
				e.vecs.shortfallCls.Add(gap*cs.frac, e.vecs.policy, cs.class.String())
			}
			e.reg.Emit(obs.Event{Type: obs.Shortfall, Step: t, App: a.demand.ID,
				Site: -1, Dst: -1, Cores: gap})
		}
		res.PerAppDemand[a.demand.ID] += a.demand.StableCores
		for _, cs := range a.shares {
			res.DemandByClass[cs.class] += a.demand.StableCores * cs.frac
		}
	}
	e.reg.Observe("sim.step_transfer_gb", res.Transfer.Values[t])

	rep.TransferGB = res.Transfer.Values[t]
	e.step++
	return rep, nil
}

// move shifts x of app a's cores from src to dst and accounts the traffic
// as a planned reallocation or a forced migration (ty): against the link
// budget, the result's ledgers, the step's report, the app's classes, the
// event stream and the vecs.
func (e *Engine) move(env *stepEnv, rep *StepReport, ty obs.EventType, a *appState, load []float64, src, dst int, x float64) {
	t, res := env.t, &e.res
	a.cur[src] -= x
	a.cur[dst] += x
	load[src] -= x
	load[dst] += x
	gb := x * a.demand.MemGBPerCore
	env.wb.Consume(src, dst, gb)
	res.Transfer.Values[t] += gb
	res.PerApp[a.demand.ID] += gb
	edge := e.vecs.planned
	if ty == obs.ForcedMigration {
		res.ForcedGB += gb
		rep.ForcedGB += gb
		edge = e.vecs.forced
	} else {
		res.PlannedGB += gb
		rep.PlannedGB += gb
	}
	res.InBySite[dst].Values[t] += gb
	res.OutBySite[src].Values[t] += gb
	for _, cs := range a.shares {
		s, ok := res.TransferByClass[cs.class]
		if !ok {
			s = trace.New(e.base.Start, e.base.Step, e.T)
			res.TransferByClass[cs.class] = s
		}
		s.Values[t] += gb * cs.frac
		e.vecs.transferByCls.Add(gb*cs.frac, e.vecs.policy, cs.class.String())
	}
	e.reg.Emit(obs.Event{Type: ty, Step: t, App: a.demand.ID, Site: src, Dst: dst, Cores: x, GB: gb})
	edge.Add(gb, e.vecs.policy, e.vecs.sites[src], e.vecs.sites[dst])
}
