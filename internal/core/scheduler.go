package core

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"github.com/vbcloud/vb/internal/lp"
	"github.com/vbcloud/vb/internal/mip"
	"github.com/vbcloud/vb/internal/obs"
)

// Scheduler places applications onto the sites of one multi-VB group over a
// discretized planning timeline. It tracks capacity commitments so
// concurrent applications do not over-subscribe a site's predicted power.
type Scheduler struct {
	cfg      Config
	numSites int
	steps    int
	// committed[s][t] is the total cores promised on site s at step t.
	committed [][]float64
	// migCommitted[t] is the planned migration traffic (GB) already
	// scheduled fleet-wide at step t; the peak objective coordinates
	// across apps through it.
	migCommitted []float64
	// vecs holds the per-policy/per-app dimensional metrics; the zero value
	// (no registry) is inert.
	vecs schedVecs
	// pressure is the current solver-latency inflation factor (>= 1; 0 or
	// 1 means none). Under pressure the per-placement node budget derates
	// to mipNodes/pressure, modeling a slow solver deterministically: the
	// truncation point depends only on the factor, never on wall clock.
	pressure float64
}

// schedVecs bundles the scheduler's dimensional metrics with the policy
// label they share and a cache of app-ID label strings. With no registry
// every vec field is nil and recording no-ops, so instrumented paths need
// no extra branching beyond the existing reg != nil guards.
type schedVecs struct {
	policy     string
	apps       map[int]string
	solve      *obs.HistogramVec
	placements *obs.CounterVec
	fallback   *obs.CounterVec
}

func newSchedVecs(cfg Config) schedVecs {
	if cfg.Obs == nil {
		return schedVecs{}
	}
	return schedVecs{
		policy:     cfg.Policy.String(),
		apps:       map[int]string{},
		solve:      cfg.Obs.NewHistogramVec("mip.solve.by_app", nil, "policy", "app"),
		placements: cfg.Obs.NewCounterVec("scheduler.placements.by_app", "policy", "app"),
		fallback:   cfg.Obs.NewCounterVec("scheduler.fallback.by_tier", "policy", "tier"),
	}
}

// app returns the cached label string for an app ID. The scheduler is
// single-goroutine (it mutates commitment ledgers), so the cache needs no
// lock; it keeps repeat placements from re-formatting the ID.
func (v *schedVecs) app(id int) string {
	s, ok := v.apps[id]
	if !ok {
		s = strconv.Itoa(id)
		v.apps[id] = s
	}
	return s
}

// mipNodes caps branch-and-bound nodes per placement before solver
// pressure derates it (see SetSolverPressure).
const mipNodes = 2000

// NewScheduler creates a scheduler for a group of numSites sites and a
// global timeline of steps plan steps.
func NewScheduler(cfg Config, numSites, steps int) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numSites <= 0 {
		return nil, fmt.Errorf("core: non-positive site count %d", numSites)
	}
	if steps <= 0 {
		return nil, fmt.Errorf("core: non-positive step count %d", steps)
	}
	s := &Scheduler{cfg: cfg, numSites: numSites, steps: steps, vecs: newSchedVecs(cfg)}
	s.committed = make([][]float64, numSites)
	for i := range s.committed {
		s.committed[i] = make([]float64, steps)
	}
	s.migCommitted = make([]float64, steps)
	return s, nil
}

// Committed returns the cores committed on site s at step t.
func (s *Scheduler) Committed(site, step int) float64 { return s.committed[site][step] }

// SetSolverPressure sets the solver-latency inflation factor for
// subsequent placements (a fault-injection input). Factors below 1 (or
// non-finite) reset to 1: no pressure. Under factor f each placement's
// branch-and-bound budget becomes max(1, mipNodes/f), so a saturated
// solver degrades to the truncated-incumbent or rounded-LP tiers exactly
// the same way on every run.
func (s *Scheduler) SetSolverPressure(f float64) {
	if math.IsNaN(f) || f < 1 {
		f = 1
	}
	s.pressure = f
}

// recordFallback makes a degraded placement visible: the plain and
// per-tier fallback counters and a SchedulerFallback trace event.
func (s *Scheduler) recordFallback(app AppDemand, nowStep int, tier string) {
	reg := s.cfg.Obs
	if reg == nil {
		return
	}
	reg.Inc("scheduler.fallback.count")
	s.vecs.fallback.Inc(s.vecs.policy, tier)
	reg.Emit(obs.Event{Type: obs.SchedulerFallback, Step: nowStep, App: app.ID, Site: -1, Dst: -1,
		Cores: app.StableCores, Detail: tier})
}

// Commit adds a plan's allocations and planned migration traffic to the
// ledgers from step `from` onward.
func (s *Scheduler) Commit(p Plan, from int) {
	for site := range p.Alloc {
		for t := from; t < s.steps; t++ {
			s.committed[site][t] += p.Alloc[site][t]
		}
	}
	for t := from; t < s.steps; t++ {
		s.migCommitted[t] += p.MigrationGB(t)
	}
}

// Uncommit removes a plan's allocations and planned migration traffic from
// the ledgers from step `from` onward (used before re-planning).
func (s *Scheduler) Uncommit(p Plan, from int) {
	for site := range p.Alloc {
		for t := from; t < s.steps; t++ {
			s.committed[site][t] -= p.Alloc[site][t]
			if s.committed[site][t] < 0 && s.committed[site][t] > -1e-6 {
				s.committed[site][t] = 0
			}
		}
	}
	for t := from; t < s.steps; t++ {
		s.migCommitted[t] -= p.MigrationGB(t)
		if s.migCommitted[t] < 0 {
			s.migCommitted[t] = 0
		}
	}
}

// CapacityFn predicts the usable cores of a site at a global plan step, as
// seen at placement time (forecast-driven, already scaled by the utilization
// target).
type CapacityFn func(site, step int) float64

// Place computes an allocation plan for app starting at nowStep and ending
// at endStep (exclusive), given predicted capacities, the app's current
// allocation per site (nil at first placement), and commits it to the
// ledger. Initial placements (prev == nil) incur no migration cost at
// nowStep. prevPlan, when non-nil, is the app's previous plan (indexed
// [site][global step]); re-plans pay a small penalty for deviating from it,
// which keeps long-horizon structure stable across forecast refreshes.
// stableCap predicts the site's *stable* capacity level (e.g. a rolling
// minimum of the forecast); allocations above it are allowed but
// discouraged, steering placements towards sites with steady power without
// forcing phantom moves during genuine scarcity. A nil stableCap reuses
// predCap.
func (s *Scheduler) Place(app AppDemand, nowStep, endStep int, predCap, stableCap CapacityFn, prev []float64, prevPlan [][]float64) (Plan, error) {
	defer obs.Time(s.cfg.Obs, "scheduler.place")()
	s.cfg.Obs.Inc("scheduler.placements")
	if s.cfg.Obs != nil {
		s.vecs.placements.Inc(s.vecs.policy, s.vecs.app(app.ID))
	}
	if err := app.Validate(); err != nil {
		return Plan{}, err
	}
	if nowStep < 0 || nowStep >= s.steps || endStep <= nowStep {
		return Plan{}, fmt.Errorf("core: bad placement window [%d, %d) of %d", nowStep, endStep, s.steps)
	}
	if endStep > s.steps {
		endStep = s.steps
	}
	if prev != nil && len(prev) != s.numSites {
		return Plan{}, fmt.Errorf("core: prev has %d sites, want %d", len(prev), s.numSites)
	}

	// Only stable cores are scheduled and migrated: degradable VMs soak
	// whatever spare powered capacity exists at a site and pause in place
	// when power drops (the paper's harvest/spot semantics), so they never
	// generate migration traffic and never constrain placement.
	if app.StableCores <= 0 {
		plan := newPlan(app.ID, s.numSites, s.steps)
		plan.MemGBPerCore = app.MemGBPerCore
		return plan, nil
	}
	var plan Plan
	var err error
	if stableCap == nil {
		stableCap = predCap
	}
	if s.cfg.Policy == Greedy {
		plan, err = s.placeGreedy(app, nowStep, endStep, predCap)
	} else {
		plan, err = s.placeMIP(app, nowStep, endStep, predCap, stableCap, prev, prevPlan)
	}
	if err != nil {
		return Plan{}, err
	}
	s.Commit(plan, nowStep)
	return plan, nil
}

// placeGreedy implements the paper's baseline: all VMs go to the site with
// the most available capacity right now, with no lookahead.
func (s *Scheduler) placeGreedy(app AppDemand, nowStep, endStep int, predCap CapacityFn) (Plan, error) {
	best, bestFree := 0, math.Inf(-1)
	for site := 0; site < s.numSites; site++ {
		free := predCap(site, nowStep) - s.committed[site][nowStep]
		if free > bestFree {
			best, bestFree = site, free
		}
	}
	plan := newPlan(app.ID, s.numSites, s.steps)
	plan.MemGBPerCore = app.MemGBPerCore
	for t := nowStep; t < endStep; t++ {
		plan.Alloc[best][t] = app.StableCores
	}
	return plan, nil
}

// placementModel builds the paper's site-selection MIP (§3.1) for app over
// the H plan steps from nowStep.
//
// Variables, per horizon step tau in [0, H) and site s:
//
//	a[s,tau]  cores of this app on site s         (continuous)
//	m[s,tau]  cores newly moved onto s at tau      (continuous)
//	o[s,tau]  cores above the stable level         (continuous)
//	u[tau]    unplaced cores (shortfall, penalized) (continuous)
//	d[s,tau]  deviation from the previous plan     (continuous, replans)
//	y[s]      site s used by this app               (binary)
//	P         peak per-step migration GB            (continuous, O2)
//	e[tau]    smoothing excess GB                   (continuous, O2)
//
// Constraints: demand per step, predicted capacity per site-step, linking
// a <= D*y, at most MaxSitesPerApp sites, migration definition
// m >= a_tau - a_{tau-1}, and P >= step traffic. Objective O1 is total
// migration GB; O2 adds peakWeight * P; shortfall carries a large penalty so
// capacity gaps surface as explicit shortfall instead of infeasibility.
func (s *Scheduler) placementModel(app AppDemand, nowStep, H int, predCap, stableCap CapacityFn, prev []float64, prevPlan [][]float64) mip.Problem {
	k := s.numSites

	// Variable layout.
	nA := k * H
	nM := k * H
	nO := k * H
	nU := H
	nD := 0
	if prevPlan != nil {
		nD = k * H
	}
	nE := 0
	if s.cfg.peakWeight() > 0 {
		nE = H
	}
	aVar := func(site, tau int) int { return site*H + tau }
	mVar := func(site, tau int) int { return nA + site*H + tau }
	oVar := func(site, tau int) int { return nA + nM + site*H + tau }
	uVar := func(tau int) int { return nA + nM + nO + tau }
	dVar := func(site, tau int) int { return nA + nM + nO + nU + site*H + tau }
	yVar := func(site int) int { return nA + nM + nO + nU + nD + site }
	pVar := nA + nM + nO + nU + nD + k
	eVar := func(tau int) int { return pVar + 1 + tau }
	numVars := pVar + 1 + nE

	obj := make([]float64, numVars)
	memGB := app.MemGBPerCore
	// O1: total migration volume. Later moves are discounted slightly so
	// that when the optimum is indifferent about *when* to move (the cost
	// of a move is the same at any step before a predicted dip), the plan
	// procrastinates: by the time the move is due, forecasts have
	// sharpened and false alarms have evaporated. Without this tie-break
	// the simplex picks arbitrary early moves that the next re-plan
	// reverses, churning traffic.
	const delayDiscount = 0.5
	for site := 0; site < k; site++ {
		for tau := 0; tau < H; tau++ {
			w := 1 + delayDiscount*float64(H-1-tau)/float64(H)
			obj[mVar(site, tau)] = memGB * w
		}
	}
	// Instability preference: placing above the predicted *stable* level
	// is allowed but mildly discouraged per step, steering apps onto sites
	// whose power is predicted to hold ("place VMs on sites which are
	// predicted to have stable power in the future") without forcing moves
	// whenever a forecast wiggles.
	const overWeight = 0.15
	for site := 0; site < k; site++ {
		for tau := 0; tau < H; tau++ {
			obj[oVar(site, tau)] = overWeight * memGB
		}
	}
	// Shortfall penalty: far larger than any plausible migration cost,
	// scaled by the demand's SLO-class pause weight so a RealTime-heavy
	// app's unplaced cores cost more than a Batch app's. Legacy demands
	// weigh exactly 1, leaving the objective bit-identical.
	shortfallPenalty := 1000 * memGB * float64(H) * app.PauseWeight()
	for tau := 0; tau < H; tau++ {
		obj[uVar(tau)] = shortfallPenalty
	}
	// O2: peak traffic (P is in GB).
	obj[pVar] = s.cfg.peakWeight()
	// O2 smoothing: e[tau] >= (step traffic) - (horizon mean traffic)
	// carries a small per-GB cost, so among plans with equal total cost and
	// equal peak the optimum spreads moves over time instead of bunching
	// them — the paper's "spreading out migrations over time and reducing
	// burstiness" is an explicit preference, not an accident of which
	// alternate optimal vertex the simplex happens to return. The weight
	// must beat the delayDiscount slope (≈ memGB·0.5/H per step) over
	// horizon-scale distances so spreading a move across the window is
	// worth it, yet stay below a real move's cost (1 per GB): adding a
	// move raises the horizon mean by Δ/H and can recoup at most ~Δ/2 of
	// excess, so smoothing can never justify extra migration volume.
	const smoothWeight = 0.2
	for tau := 0; tau < nE; tau++ {
		obj[eVar(tau)] = smoothWeight
	}
	// Plan-stability penalty: deviating from the previous plan costs a
	// fraction of a real move, so re-plans only restructure when the
	// predicted savings are material.
	const devWeight = 0.05
	if prevPlan != nil {
		for site := 0; site < k; site++ {
			for tau := 0; tau < H; tau++ {
				obj[dVar(site, tau)] = devWeight * memGB
			}
		}
	}

	// Every row lists its terms in ascending variable order (the layout
	// above puts a < m < o < u < d < y < P < e), into one buffer sized
	// exactly for the model.
	rows := newRowBuf(placementShape(k, H, prev != nil, prevPlan != nil, nE > 0))
	// Singleton rows (hard capacity, binary bounds) become native variable
	// bounds: the LP shrinks and branching on y tightens a bound in place.
	// Lower bounds stay at the default zero.
	upper := make([]float64, numVars)
	for j := range upper {
		upper[j] = math.Inf(1)
	}

	demand := app.StableCores
	// Hard feasibility applies only within the execution window (the next
	// day, where forecasts are sharp and the plan actually runs before the
	// next refresh). Beyond it, predicted capacity acts as a soft
	// preference: a far-out predicted dip steers placement but cannot
	// force a phantom move that the next forecast refresh would cancel.
	hardSteps := int(24 * time.Hour / s.cfg.PlanStep)
	if hardSteps < 1 {
		hardSteps = 1
	}
	for tau := 0; tau < H; tau++ {
		// Demand: sum_s a + u = D (stable cores only).
		for site := 0; site < k; site++ {
			rows.add(aVar(site, tau), 1)
		}
		rows.add(uVar(tau), 1)
		rows.end(lp.EQ, demand)
	}
	for site := 0; site < k; site++ {
		for tau := 0; tau < H; tau++ {
			free := predCap(site, nowStep+tau) - s.committed[site][nowStep+tau]
			if free < 0 {
				free = 0
			}
			freeStable := stableCap(site, nowStep+tau) - s.committed[site][nowStep+tau]
			if freeStable < 0 {
				freeStable = 0
			}
			if tau < hardSteps {
				// Hard capacity at the plain forecast.
				upper[aVar(site, tau)] = free
			}
			// Soft preference: a - o <= stable level.
			rows.add(aVar(site, tau), 1)
			rows.add(oVar(site, tau), -1)
			rows.end(lp.LE, freeStable)
			// Linking: a <= D * y.
			rows.add(aVar(site, tau), 1)
			rows.add(yVar(site), -demand)
			rows.end(lp.LE, 0)
			// Migration definition: m >= a_tau - a_{tau-1}.
			if tau == 0 {
				if prev != nil {
					rows.add(aVar(site, 0), -1)
					rows.add(mVar(site, 0), 1)
					rows.end(lp.GE, -prev[site])
				}
				// First placement: tau 0 moves are free (no constraint ties
				// m down; m = 0 at optimum since it only costs).
			} else {
				rows.add(aVar(site, tau-1), 1)
				rows.add(aVar(site, tau), -1)
				rows.add(mVar(site, tau), 1)
				rows.end(lp.GE, 0)
			}
		}
		// Binary bound.
		upper[yVar(site)] = 1
		// Deviation from the previous plan: d >= |a - prevPlan|.
		if prevPlan != nil {
			for tau := 0; tau < H; tau++ {
				old := prevPlan[site][nowStep+tau]
				rows.add(aVar(site, tau), -1)
				rows.add(dVar(site, tau), 1)
				rows.end(lp.GE, -old)
				rows.add(aVar(site, tau), 1)
				rows.add(dVar(site, tau), 1)
				rows.end(lp.GE, old)
			}
		}
	}
	// Site count bound.
	for site := 0; site < k; site++ {
		rows.add(yVar(site), 1)
	}
	rows.end(lp.LE, float64(s.cfg.maxSites()))
	// Peak: this app's step traffic stacked on the fleet-wide planned
	// traffic must fit under P. Coordinating through the migration ledger
	// is what spreads the *aggregate* migration load over time ("MIP-peak
	// migrates VMs preemptively, spreading out migrations over time and
	// reducing burstiness").
	if nE > 0 {
		meanCommitted := 0.0
		for tau := 0; tau < H; tau++ {
			meanCommitted += s.migCommitted[nowStep+tau]
		}
		meanCommitted /= float64(H)
		share := -memGB / float64(H)
		for tau := 0; tau < H; tau++ {
			for site := 0; site < k; site++ {
				rows.add(mVar(site, tau), memGB)
			}
			rows.add(pVar, -1)
			rows.end(lp.LE, -s.migCommitted[nowStep+tau])
			// Smoothing excess: step traffic minus the horizon-mean traffic
			// (both including the fleet-wide committed ledger) must fit
			// under e[tau]:
			//   sum_s mem*m[s,tau] - (1/H) sum_{s,t'} mem*m[s,t'] - e[tau]
			//     <= mean(committed) - committed[tau].
			// The diagonal coefficient must stay the sum share + memGB:
			// an algebraically equal form such as memGB·(H-1)/H can
			// differ in the last bit, and with it the plans.
			for site := 0; site < k; site++ {
				for t2 := 0; t2 < H; t2++ {
					v := share
					if t2 == tau {
						v += memGB
					}
					rows.add(mVar(site, t2), v)
				}
			}
			rows.add(eVar(tau), -1)
			rows.end(lp.LE, meanCommitted-s.migCommitted[nowStep+tau])
		}
	}

	integer := make([]bool, numVars)
	for site := 0; site < k; site++ {
		integer[yVar(site)] = true
	}
	return mip.Problem{
		Problem: lp.Problem{NumVars: numVars, Objective: obj, Constraints: rows.rows, Upper: upper},
		Integer: integer,
	}
}

// placeMIP builds and solves the paper's site-selection MIP (§3.1); see
// placementModel for its variables and rows.
func (s *Scheduler) placeMIP(app AppDemand, nowStep, endStep int, predCap, stableCap CapacityFn, prev []float64, prevPlan [][]float64) (Plan, error) {
	H := endStep - nowStep
	if s.cfg.Policy == MIP24h {
		hs := int(24 * time.Hour / s.cfg.PlanStep)
		if hs < 1 {
			hs = 1
		}
		if hs < H {
			H = hs
		}
	}
	k := s.numSites
	aVar := func(site, tau int) int { return site*H + tau }
	demand := app.StableCores
	prob := s.placementModel(app, nowStep, H, predCap, stableCap, prev, prevPlan)

	// Solver pressure (a latency fault) derates the node budget instead of
	// racing a wall clock: the truncation point is then a pure function of
	// the script, keeping decision logs bit-identical from run to run.
	maxNodes := mipNodes
	if s.pressure > 1 {
		maxNodes = int(float64(maxNodes) / s.pressure)
		if maxNodes < 1 {
			maxNodes = 1
		}
	}

	reg := s.cfg.Obs
	var solveStart time.Time
	if reg != nil {
		solveStart = time.Now()
		reg.Emit(obs.Event{Type: obs.MIPSolveStart, Step: nowStep, App: app.ID, Site: -1, Dst: -1, Cores: demand})
	}
	sol, err := mip.Solve(prob, mip.Options{MaxNodes: maxNodes})
	if reg != nil {
		d := time.Since(solveStart)
		reg.ObserveDuration("mip.solve", d)
		reg.Add("mip.nodes", float64(sol.Nodes))
		reg.Add("lp.pivots", float64(sol.Pivots))
		reg.Add("lp.refactor.count", float64(sol.Refactors))
		reg.Observe("lp.eta.chain_len", float64(sol.EtaChainLen))
		s.vecs.solve.Observe(d.Seconds(), s.vecs.policy, s.vecs.app(app.ID))
		if err == nil && sol.Status == lp.Optimal {
			reg.Emit(obs.Event{Type: obs.MIPSolveFinish, Step: nowStep, App: app.ID, Site: -1, Dst: -1,
				Cores: demand, DurNS: d.Nanoseconds(), Objective: sol.Objective,
				Pivots: sol.Pivots, Refactors: sol.Refactors, EtaLen: sol.EtaChainLen})
		} else {
			reg.Inc("mip.failures")
		}
		// A pressure-derated budget truncating the search counts as a
		// deadline event whether or not an incumbent survived to serve the
		// placement.
		if err == nil && s.pressure > 1 && !sol.Proven {
			reg.Inc("solver.deadline_exceeded")
		}
	}
	// Graceful-degradation ladder. Tier 0 is the full (or truncated-with-
	// incumbent) branch-and-bound solution above. When that produced no
	// usable plan — node budget exhausted before the first integer point,
	// or a numerical dead end — tier 1 rounds and repairs the LP
	// relaxation, and tier 2 falls back to the greedy baseline, which
	// cannot fail. Solver trouble therefore never
	// surfaces as a placement error: it degrades, and the degradation is
	// recorded (scheduler.fallback.count, SchedulerFallback events).
	if err != nil || sol.Status != lp.Optimal {
		rsol, rerr := mip.SolveRelaxationRounded(prob)
		if rerr == nil && rsol.Status == lp.Optimal {
			s.recordFallback(app, nowStep, "rounded-lp")
			if reg != nil {
				d := time.Since(solveStart)
				reg.Emit(obs.Event{Type: obs.MIPSolveFinish, Step: nowStep, App: app.ID, Site: -1, Dst: -1,
					Cores: demand, DurNS: d.Nanoseconds(), Objective: rsol.Objective,
					Detail: "fallback=rounded-lp",
					Pivots: rsol.Pivots, Refactors: rsol.Refactors, EtaLen: rsol.EtaChainLen})
			}
			sol = rsol
		} else {
			s.recordFallback(app, nowStep, "greedy")
			if reg != nil {
				d := time.Since(solveStart)
				reg.Emit(obs.Event{Type: obs.MIPSolveFinish, Step: nowStep, App: app.ID, Site: -1, Dst: -1,
					Cores: demand, DurNS: d.Nanoseconds(), Detail: "fallback=greedy"})
			}
			return s.placeGreedy(app, nowStep, endStep, predCap)
		}
	}

	plan := newPlan(app.ID, s.numSites, s.steps)
	plan.MemGBPerCore = app.MemGBPerCore
	for site := 0; site < k; site++ {
		for t := nowStep; t < endStep; t++ {
			tau := t - nowStep
			if tau >= H {
				tau = H - 1 // hold the last planned allocation
			}
			plan.Alloc[site][t] = sol.X[aVar(site, tau)]
		}
	}
	return plan, nil
}

// rowBuf collects a model's constraint rows. Every row's index/value pairs
// live in one pair of buffers allocated once at the model's exact size.
type rowBuf struct {
	rows  []lp.Constraint
	idx   []int32
	val   []float64
	start int
}

func newRowBuf(rows, nnz int) rowBuf {
	return rowBuf{
		rows: make([]lp.Constraint, 0, rows),
		idx:  make([]int32, 0, nnz),
		val:  make([]float64, 0, nnz),
	}
}

// add appends the term v·x_j to the open row; j must exceed the row's
// previous index.
func (b *rowBuf) add(j int, v float64) {
	b.idx = append(b.idx, int32(j))
	b.val = append(b.val, v)
}

// end closes the open row as (terms) sense rhs.
func (b *rowBuf) end(sense lp.Sense, rhs float64) {
	n := len(b.idx)
	b.rows = append(b.rows, lp.Constraint{Idx: b.idx[b.start:n:n], Val: b.val[b.start:n:n], Sense: sense, RHS: rhs})
	b.start = n
}

// placementShape returns the row and nonzero counts of a placement model
// over k sites and H steps: prev adds the tau-0 migration rows, prevPlan
// the deviation rows, and peak the peak and smoothing rows.
func placementShape(k, H int, prev, prevPlan, peak bool) (rows, nnz int) {
	rows, nnz = H, H*(k+1) // demand
	rows += k * (3*H - 1)  // soft, linking, and migration for tau > 0
	nnz += k * (7*H - 3)
	if prev {
		rows, nnz = rows+k, nnz+2*k
	}
	if prevPlan {
		rows, nnz = rows+2*k*H, nnz+4*k*H
	}
	rows, nnz = rows+1, nnz+k // site count
	if peak {
		rows += 2 * H
		nnz += H*(k+1) + H*(k*H+1)
	}
	return rows, nnz
}

func newPlan(appID, numSites, steps int) Plan {
	p := Plan{AppID: appID, Alloc: make([][]float64, numSites)}
	for i := range p.Alloc {
		p.Alloc[i] = make([]float64, steps)
	}
	return p
}
