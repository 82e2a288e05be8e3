package core

import (
	"math"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/obs"
)

// capFn builds a CapacityFn from constant per-site capacities.
func capFn(caps ...float64) CapacityFn {
	return func(site, step int) float64 { return caps[site] }
}

// newTestScheduler builds a 2-site scheduler with one site per app and the
// default node budget.
func newTestScheduler(t *testing.T, reg *obs.Registry) *Scheduler {
	t.Helper()
	cfg := Config{Policy: MIP, PlanStep: 6 * time.Hour, MaxSitesPerApp: 1, Obs: reg}
	s, err := NewScheduler(cfg, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newRootOnlyScheduler is newTestScheduler under solver pressure 2000,
// which derates the 2,000-node budget to the root alone, so branch and
// bound cannot reach an integer incumbent whenever the relaxation is
// fractional.
func newRootOnlyScheduler(t *testing.T, reg *obs.Registry) *Scheduler {
	t.Helper()
	s := newTestScheduler(t, reg)
	s.SetSolverPressure(2000)
	return s
}

// With caps 7/3 and demand 10 under MaxSitesPerApp=1, the relaxation is
// forced to y = (0.7, 0.3): fractional, so a 1-node budget yields no
// incumbent — and rounding y to (1, 0) is feasible (3 cores become
// explicit shortfall). The ladder must land on the rounded-lp tier, and
// the pressure-truncated search counts as one deadline event.
func TestFallbackRoundedLPTier(t *testing.T) {
	reg := obs.NewRegistry()
	s := newRootOnlyScheduler(t, reg)
	app := demand(1, 10, 10, 2)
	plan, err := s.Place(app, 0, 4, capFn(7, 3), nil, nil, nil)
	if err != nil {
		t.Fatalf("degraded placement returned error: %v", err)
	}
	// The rounded repair keeps site 0 (the bigger site) and drops site 1.
	if got := plan.Alloc[0][0]; math.Abs(got-7) > 1e-6 {
		t.Fatalf("site 0 allocation = %v, want 7", got)
	}
	if got := plan.Alloc[1][0]; got > 1e-6 {
		t.Fatalf("site 1 allocation = %v, want 0 after rounding y to (1,0)", got)
	}
	if got := reg.Counter("scheduler.fallback.count"); got != 1 {
		t.Fatalf("scheduler.fallback.count = %v, want 1", got)
	}
	if got := reg.Counter("solver.deadline_exceeded"); got != 1 {
		t.Fatalf("solver.deadline_exceeded = %v, want 1 (budget truncated by pressure)", got)
	}
	vec := reg.NewCounterVec("scheduler.fallback.by_tier", "policy", "tier")
	if got := vec.Value("MIP", "rounded-lp"); got != 1 {
		t.Fatalf("fallback.by_tier[MIP,rounded-lp] = %v, want 1", got)
	}
	if got := reg.Tracer().Stats(obs.SchedulerFallback).Count; got != 1 {
		t.Fatalf("SchedulerFallback events = %d, want 1", got)
	}
	// The MIPSolveFinish event carries the tier.
	var finish *obs.Event
	for _, e := range reg.Tracer().Events() {
		if e.Type == obs.MIPSolveFinish {
			ev := e
			finish = &ev
		}
	}
	if finish == nil || finish.Detail != "fallback=rounded-lp" {
		t.Fatalf("MIPSolveFinish detail = %+v, want fallback=rounded-lp", finish)
	}
}

// With caps 5/5 and demand 10 under MaxSitesPerApp=1 the relaxation is
// forced to y = (0.5, 0.5); both round up to 1, violating the sum-y <= 1
// row, so the rounded repair is infeasible and the ladder must land on
// the greedy tier.
func TestFallbackGreedyTier(t *testing.T) {
	reg := obs.NewRegistry()
	s := newRootOnlyScheduler(t, reg)
	app := demand(1, 10, 10, 2)
	plan, err := s.Place(app, 0, 4, capFn(5, 5), nil, nil, nil)
	if err != nil {
		t.Fatalf("degraded placement returned error: %v", err)
	}
	// Greedy puts all stable cores on one site (the most-free one).
	used := 0
	for site := 0; site < 2; site++ {
		if plan.Alloc[site][0] > 1e-6 {
			used++
			if math.Abs(plan.Alloc[site][0]-10) > 1e-6 {
				t.Fatalf("greedy allocation on site %d = %v, want 10", site, plan.Alloc[site][0])
			}
		}
	}
	if used != 1 {
		t.Fatalf("greedy fallback used %d sites, want 1", used)
	}
	vec := reg.NewCounterVec("scheduler.fallback.by_tier", "policy", "tier")
	if got := vec.Value("MIP", "greedy"); got != 1 {
		t.Fatalf("fallback.by_tier[MIP,greedy] = %v, want 1", got)
	}
	if got := reg.Counter("scheduler.fallback.count"); got != 1 {
		t.Fatalf("scheduler.fallback.count = %v, want 1", got)
	}
	if got := reg.Counter("solver.deadline_exceeded"); got != 1 {
		t.Fatalf("solver.deadline_exceeded = %v, want 1 (budget truncated by pressure)", got)
	}
}

// Solver pressure derates the node budget: with the 2,000-node budget and
// pressure 4000 the effective budget is 1 node, which must reproduce the
// rounded-lp degradation and count a deadline event — without touching
// wall clocks.
func TestSolverPressureDeratesAndCounts(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestScheduler(t, reg)
	s.SetSolverPressure(4000)
	app := demand(1, 10, 10, 2)
	if _, err := s.Place(app, 0, 4, capFn(7, 3), nil, nil, nil); err != nil {
		t.Fatalf("degraded placement returned error: %v", err)
	}
	if got := reg.Counter("solver.deadline_exceeded"); got != 1 {
		t.Fatalf("solver.deadline_exceeded = %v, want 1", got)
	}
	if got := reg.Counter("scheduler.fallback.count"); got != 1 {
		t.Fatalf("scheduler.fallback.count = %v, want 1", got)
	}

	// Pressure 1 (or nonsense values) restores the full budget: the same
	// placement on a fresh scheduler solves cleanly with no fallback.
	reg2 := obs.NewRegistry()
	s2 := newTestScheduler(t, reg2)
	s2.SetSolverPressure(math.NaN()) // clamps to 1
	if _, err := s2.Place(app, 0, 4, capFn(7, 3), nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg2.Counter("scheduler.fallback.count"); got != 0 {
		t.Fatalf("clean solve recorded fallback: %v", got)
	}
	if got := reg2.Counter("solver.deadline_exceeded"); got != 0 {
		t.Fatalf("clean solve counted a deadline: %v", got)
	}
}

// A clean solve (no pressure, feasible integer optimum) must not record any
// fallback or deadline activity: the degradation machinery is invisible on
// the seed path.
func TestCleanSolveRecordsNoFallback(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestScheduler(t, reg)
	app := demand(1, 6, 6, 2)
	if _, err := s.Place(app, 0, 4, capFn(7, 3), nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"scheduler.fallback.count", "solver.deadline_exceeded", "mip.failures"} {
		if got := reg.Counter(name); got != 0 {
			t.Fatalf("%s = %v on a clean solve, want 0", name, got)
		}
	}
	if got := reg.Tracer().Stats(obs.SchedulerFallback).Count; got != 0 {
		t.Fatalf("SchedulerFallback events = %d on a clean solve", got)
	}
}
