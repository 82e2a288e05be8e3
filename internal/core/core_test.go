package core

import (
	"math"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/obs"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

func validConfig(p Policy) Config {
	return Config{Policy: p, PlanStep: 6 * time.Hour}
}

func demand(id int, cores, stable, memPerCore float64) AppDemand {
	return AppDemand{ID: id, Cores: cores, StableCores: stable, MemGBPerCore: memPerCore, Start: t0}
}

func TestPolicyString(t *testing.T) {
	want := map[Policy]string{Greedy: "Greedy", MIP: "MIP", MIP24h: "MIP-24h", MIPPeak: "MIP-peak"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if Policy(99).String() == "" {
		t.Error("unknown policy should still format")
	}
	if len(AllPolicies()) != 4 {
		t.Error("AllPolicies should list 4 policies")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := validConfig(MIP).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{},
		{Policy: MIP, PlanStep: -time.Hour},
		{Policy: MIP, PlanStep: time.Hour, Horizon: -time.Hour},
		{Policy: Policy(9), PlanStep: time.Hour},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.maxSites() != 3 {
		t.Error("default max sites")
	}
	if c.Utilization() != 0.7 {
		t.Error("default util target")
	}
	if c.mipNodes() != 2000 {
		t.Error("default MIP nodes")
	}
	if c.peakWeight() != 0 {
		t.Error("non-peak policy should have zero peak weight")
	}
	c.Policy = MIPPeak
	if c.peakWeight() != 8 {
		t.Error("default peak weight")
	}
	c.PeakWeight = 2
	if c.peakWeight() != 2 {
		t.Error("explicit peak weight")
	}
}

func TestAppDemandValidate(t *testing.T) {
	if err := demand(1, 10, 7, 4).Validate(); err != nil {
		t.Fatalf("valid demand rejected: %v", err)
	}
	bad := []AppDemand{
		{ID: 1, Cores: 0, MemGBPerCore: 1},
		{ID: 1, Cores: 10, StableCores: -1, MemGBPerCore: 1},
		{ID: 1, Cores: 10, StableCores: 11, MemGBPerCore: 1},
		{ID: 1, Cores: 10, StableCores: 5, MemGBPerCore: 0},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad demand %d accepted", i)
		}
	}
}

func TestPlanHelpers(t *testing.T) {
	p := Plan{MemGBPerCore: 2, Alloc: [][]float64{{0, 5, 5, 2}, {0, 0, 3, 6}}}
	if p.SitesUsed() != 2 {
		t.Errorf("SitesUsed = %d", p.SitesUsed())
	}
	if got := p.MigrationGB(0); got != 0 {
		t.Errorf("MigrationGB(0) = %v, want 0", got)
	}
	// Step 1: site0 +5 cores -> 10 GB.
	if got := p.MigrationGB(1); got != 10 {
		t.Errorf("MigrationGB(1) = %v, want 10", got)
	}
	// Step 2: site1 +3 -> 6 GB (site0 unchanged).
	if got := p.MigrationGB(2); got != 6 {
		t.Errorf("MigrationGB(2) = %v, want 6", got)
	}
	// Step 3: site0 -3 (free), site1 +3 -> 6 GB.
	if got := p.MigrationGB(3); got != 6 {
		t.Errorf("MigrationGB(3) = %v, want 6", got)
	}
	empty := Plan{Alloc: [][]float64{{0, 0}}}
	if empty.SitesUsed() != 0 {
		t.Error("empty plan uses no sites")
	}
}

func TestNewSchedulerErrors(t *testing.T) {
	if _, err := NewScheduler(Config{}, 2, 10); err == nil {
		t.Error("invalid config should error")
	}
	if _, err := NewScheduler(validConfig(MIP), 0, 10); err == nil {
		t.Error("zero sites should error")
	}
	if _, err := NewScheduler(validConfig(MIP), 2, 0); err == nil {
		t.Error("zero steps should error")
	}
}

// constCap returns a CapacityFn with fixed per-site capacity.
func constCap(caps ...float64) CapacityFn {
	return func(site, step int) float64 { return caps[site] }
}

func TestPlaceErrors(t *testing.T) {
	s, err := NewScheduler(validConfig(MIP), 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	cap2 := constCap(100, 100)
	if _, err := s.Place(AppDemand{}, 0, 10, cap2, nil, nil, nil); err == nil {
		t.Error("invalid demand should error")
	}
	d := demand(1, 10, 10, 4)
	if _, err := s.Place(d, -1, 10, cap2, nil, nil, nil); err == nil {
		t.Error("negative nowStep should error")
	}
	if _, err := s.Place(d, 5, 5, cap2, nil, nil, nil); err == nil {
		t.Error("empty window should error")
	}
	if _, err := s.Place(d, 0, 10, cap2, nil, []float64{1}, nil); err == nil {
		t.Error("prev length mismatch should error")
	}
}

func TestPlacePureDegradableIsFree(t *testing.T) {
	s, err := NewScheduler(validConfig(MIP), 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	d := demand(1, 50, 0, 4) // no stable cores
	plan, err := s.Place(d, 0, 10, constCap(100, 100), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SitesUsed() != 0 {
		t.Error("pure-degradable app should not be scheduled")
	}
	if s.Committed(0, 0) != 0 || s.Committed(1, 0) != 0 {
		t.Error("pure-degradable app should not commit capacity")
	}
}

func TestPlaceGreedyPicksFreeSite(t *testing.T) {
	s, err := NewScheduler(validConfig(Greedy), 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	caps := constCap(50, 200, 100)
	plan, err := s.Place(demand(1, 20, 20, 4), 0, 8, caps, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 8; tt++ {
		if plan.Alloc[1][tt] != 20 {
			t.Fatalf("greedy should put all 20 cores on site 1 at step %d: %v", tt, plan.Alloc)
		}
	}
	// Ledger updated; second app sees reduced free capacity on site 1:
	// 200-20=180 still beats 100, so still site 1.
	plan2, err := s.Place(demand(2, 150, 150, 4), 0, 8, caps, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Alloc[1][0] != 150 {
		t.Errorf("second greedy app should also pick site 1: %v", plan2.Alloc)
	}
	// Third app: site 1 now has 200-170=30 free < site 2's 100.
	plan3, err := s.Place(demand(3, 10, 10, 4), 0, 8, caps, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan3.Alloc[2][0] != 10 {
		t.Errorf("third greedy app should pick site 2: %v", plan3.Alloc)
	}
}

func TestPlaceMIPPrefersStableSite(t *testing.T) {
	s, err := NewScheduler(validConfig(MIP), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Site 0: plenty of headline capacity but zero *stable* capacity (a
	// solar site); site 1: steady wind.
	pred := constCap(500, 200)
	stable := constCap(0, 200)
	plan, err := s.Place(demand(1, 100, 100, 4), 0, 8, pred, stable, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 8; tt++ {
		if plan.Alloc[1][tt] < 99.9 {
			t.Fatalf("MIP should place on the stable site: step %d alloc %v", tt, plan.Alloc)
		}
	}
}

func TestPlaceMIPConstantWhenFeasible(t *testing.T) {
	s, err := NewScheduler(validConfig(MIP), 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	cap3 := constCap(300, 300, 300)
	plan, err := s.Place(demand(1, 90, 90, 4), 0, 12, cap3, cap3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With constant capacity, the plan must never migrate.
	for tt := 1; tt < 12; tt++ {
		if plan.MigrationGB(tt) > 1e-6 {
			t.Fatalf("constant-capacity plan migrates at step %d: %v GB", tt, plan.MigrationGB(tt))
		}
	}
	// Demand met each step.
	for tt := 0; tt < 12; tt++ {
		var sum float64
		for site := 0; site < 3; site++ {
			sum += plan.Alloc[site][tt]
		}
		if math.Abs(sum-90) > 1e-6 {
			t.Fatalf("step %d places %v cores, want 90", tt, sum)
		}
	}
}

func TestPlaceMIPMovesAroundPredictedDip(t *testing.T) {
	cfg := validConfig(MIP)
	s, err := NewScheduler(cfg, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Site 0 dies at steps 2-3 (within the 24h hard window: steps 0-3);
	// site 1 is small but steady.
	pred := func(site, step int) float64 {
		if site == 0 {
			if step == 2 || step == 3 {
				return 0
			}
			return 200
		}
		return 80
	}
	plan, err := s.Place(demand(1, 60, 60, 4), 0, 8, pred, pred, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// At the dip steps nothing may sit on site 0.
	for _, tt := range []int{2, 3} {
		if plan.Alloc[0][tt] > 1e-6 {
			t.Errorf("step %d keeps %v cores on the dead site", tt, plan.Alloc[0][tt])
		}
		if plan.Alloc[1][tt] < 59.9 {
			t.Errorf("step %d should shift demand to site 1: %v", tt, plan.Alloc[1][tt])
		}
	}
}

func TestPlaceMIPRespectsMaxSites(t *testing.T) {
	cfg := validConfig(MIP)
	cfg.MaxSitesPerApp = 1
	s, err := NewScheduler(cfg, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	cap3 := constCap(100, 100, 100)
	plan, err := s.Place(demand(1, 50, 50, 4), 0, 6, cap3, cap3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SitesUsed() > 1 {
		t.Errorf("MaxSitesPerApp=1 violated: %d sites used", plan.SitesUsed())
	}
}

func TestCommitUncommitRoundTrip(t *testing.T) {
	s, err := NewScheduler(validConfig(MIP), 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	cap2 := constCap(100, 100)
	plan, err := s.Place(demand(1, 40, 40, 4), 0, 6, cap2, cap2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var before float64
	for site := 0; site < 2; site++ {
		before += s.Committed(site, 3)
	}
	if math.Abs(before-40) > 1e-6 {
		t.Errorf("committed after place = %v, want 40", before)
	}
	s.Uncommit(plan, 0)
	for site := 0; site < 2; site++ {
		if math.Abs(s.Committed(site, 3)) > 1e-6 {
			t.Errorf("committed after uncommit = %v, want 0", s.Committed(site, 3))
		}
	}
}

func TestMIP24hHorizonTruncated(t *testing.T) {
	cfg := validConfig(MIP24h) // PlanStep 6h -> 4 steps per day
	s, err := NewScheduler(cfg, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity collapses at step 6 — beyond the 24h (4-step) horizon, so
	// the plan cannot see it and should hold the step-3 allocation.
	pred := func(site, step int) float64 {
		if site == 0 && step >= 6 {
			return 0
		}
		return 100
	}
	plan, err := s.Place(demand(1, 50, 50, 4), 0, 20, pred, pred, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 4; tt < 20; tt++ {
		for site := 0; site < 2; site++ {
			if plan.Alloc[site][tt] != plan.Alloc[site][3] {
				t.Fatalf("beyond-horizon alloc should hold step 3 value: step %d site %d", tt, site)
			}
		}
	}
}

func TestPlaceWithPrevChargesMoves(t *testing.T) {
	s, err := NewScheduler(validConfig(MIP), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	cap2 := constCap(100, 100)
	// App currently entirely on site 0; equal capacity means staying is
	// optimal (moving costs).
	prev := []float64{50, 0}
	plan, err := s.Place(demand(1, 50, 50, 4), 2, 8, cap2, cap2, prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Alloc[0][2] < 49.9 {
		t.Errorf("replan should stay on site 0: %v", plan.Alloc[0][2])
	}
}

// TestPeakLedgerCoordination: with the peak objective, a second app whose
// move could stack on the first app's planned migration spike should
// schedule its own moves at other steps (the fleet-wide migration ledger).
func TestPeakLedgerCoordination(t *testing.T) {
	cfg := validConfig(MIPPeak)
	cfg.PeakWeight = 50 // make O2 dominate
	s, err := NewScheduler(cfg, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Site 0 dies at step 4 onward; site 1 is steady. Both apps must move
	// from 0 to 1 by step 4.
	pred := func(site, step int) float64 {
		if site == 0 {
			if step >= 4 {
				return 0
			}
			return 300
		}
		return 300
	}
	prev := []float64{100, 0}
	planA, err := s.Place(demand(1, 100, 100, 4), 0, 8, pred, pred, prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	planB, err := s.Place(demand(2, 100, 100, 4), 0, 8, pred, pred, prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Total migration per step across both plans: the peak step should
	// carry at most ~one app's worth of traffic, not both stacked.
	peak := 0.0
	for tt := 1; tt < 8; tt++ {
		v := planA.MigrationGB(tt) + planB.MigrationGB(tt)
		if v > peak {
			peak = v
		}
	}
	if peak > 100*4+1e-6 {
		t.Errorf("peak step traffic = %v GB, want apps to spread (<= one app = 400)", peak)
	}
}

// TestMIPOversubscribesGracefully: when stable capacity is scarce but plain
// capacity suffices, the plan places everything (soft constraint) instead
// of leaving demand short.
func TestMIPOversubscribesGracefully(t *testing.T) {
	s, err := NewScheduler(validConfig(MIP), 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	pred := constCap(200, 200) // plain forecast: plenty
	stable := constCap(20, 20) // stable level: tiny
	plan, err := s.Place(demand(1, 150, 150, 4), 0, 6, pred, stable, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 6; tt++ {
		var sum float64
		for site := 0; site < 2; site++ {
			sum += plan.Alloc[site][tt]
		}
		if sum < 150-1e-6 {
			t.Fatalf("step %d places %v cores of 150: soft capacity should not refuse demand", tt, sum)
		}
	}
}

// TestSolverWorkersObsCounters pins the solver-kernel observability wiring:
// a parallel-solver scheduler must report basis counters through the
// registry, and its placements must match the serial scheduler's.
func TestSolverWorkersObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := validConfig(MIP)
	cfg.SolverWorkers = 2
	cfg.Obs = reg
	s, err := NewScheduler(cfg, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	pred := constCap(500, 200)
	plan, err := s.Place(demand(1, 100, 100, 4), 0, 8, pred, pred, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	serial, err := NewScheduler(validConfig(MIP), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Place(demand(1, 100, 100, 4), 0, 8, pred, pred, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for site := range plan.Alloc {
		for tt := range plan.Alloc[site] {
			if math.Abs(plan.Alloc[site][tt]-want.Alloc[site][tt]) > 1e-6 {
				t.Fatalf("parallel plan diverges at site %d step %d: %v vs %v",
					site, tt, plan.Alloc[site][tt], want.Alloc[site][tt])
			}
		}
	}

	if got := reg.Counter("mip.nodes.parallel"); got <= 0 {
		t.Errorf("mip.nodes.parallel = %v, want > 0", got)
	}
	if got := reg.Counter("mip.nodes"); got <= 0 {
		t.Errorf("mip.nodes = %v, want > 0", got)
	}
	// The refactor counter must exist even when no refactorization fired,
	// and the eta-chain gauge must have recorded one sample per solve.
	if _, ok := reg.Histogram("lp.eta.chain_len"); !ok {
		t.Error("lp.eta.chain_len histogram not recorded")
	}
	if got := reg.Counter("lp.refactor.count"); got < 0 {
		t.Errorf("lp.refactor.count = %v, want >= 0", got)
	}
}
