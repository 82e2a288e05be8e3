package core

import (
	"math"
	"testing"
	"time"
)

// placementSteadyAllocs is the most a warm three-site MIP placement plus
// its Uncommit may allocate: the plan (its header slice and one row per
// site), the solution vector, and the root branch-and-bound node.
const placementSteadyAllocs = 6

// TestPlacementSteadyStateAllocs holds a MIP placement to what the
// scheduler's arena promises: once its solver and model buffers have grown
// to a model's size, placing an app and uncommitting it allocates only the
// plan, the solution and the search nodes, nothing that grows with the
// model. The registry is nil, as on the benchmark's path.
func TestPlacementSteadyStateAllocs(t *testing.T) {
	const sites, steps = 3, 28
	s, err := NewScheduler(Config{Policy: MIP, PlanStep: 6 * time.Hour, UtilTarget: 0.7, MaxSitesPerApp: sites}, sites, steps)
	if err != nil {
		t.Fatal(err)
	}
	capAt := func(site, step int) float64 { return 12000 + 3000*math.Sin(float64(step+site*7)/3) }
	d := demand(1, 4000, 2800, 4)
	place := func() {
		plan, err := s.Place(d, 0, steps, capAt, capAt, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.Uncommit(plan, 0)
	}
	for i := 0; i < 3; i++ {
		place()
	}
	if got := testing.AllocsPerRun(20, place); got > placementSteadyAllocs {
		t.Fatalf("a warm MIP placement allocates %v times, want at most %d", got, placementSteadyAllocs)
	}
}
