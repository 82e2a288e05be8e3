package vb

import (
	"context"
	"fmt"
	"time"

	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/energy"
	"github.com/vbcloud/vb/internal/graph"
	"github.com/vbcloud/vb/internal/par"
	"github.com/vbcloud/vb/internal/sim"
)

// PipelineResult reports the end-to-end Fig 6 pipeline on a fleet: subgraph
// identification (k-cliques ranked by cov) feeding the MIP scheduler,
// compared against scheduling on a latency-feasible but variability-blind
// group.
type PipelineResult struct {
	// Chosen is the cov-ranked best 3-clique; Naive is the first
	// latency-feasible 3-clique with no variability ranking.
	Chosen, Naive []SiteConfig
	// ChosenCoV and NaiveCoV are the groups' summed-power covs.
	ChosenCoV, NaiveCoV float64
	// ChosenTotalGB and NaiveTotalGB are the MIP policy's total migration
	// overhead on each group.
	ChosenTotalGB, NaiveTotalGB float64
	// ChosenPaused and NaivePaused are the availability violations
	// (stable core-steps paused).
	ChosenPaused, NaivePaused float64
}

// FullPipeline runs the paper's whole scheduling pipeline (Fig 6) over the
// 12-site European fleet: build the latency graph, enumerate and rank
// 3-cliques by the cov of their summed predicted power (step 1), then
// schedule a week of applications on the best group with the MIP policy
// (steps 2-4) — and contrast with the first latency-feasible group picked
// without looking at variability.
func FullPipeline(seed uint64) (PipelineResult, error) {
	// withDefaults maps seed 0 to DefaultSeed; the pipeline draws its power,
	// forecasts and apps from the seed it was given.
	s := Table1Setup{}.withDefaults()
	s.Seed = seed
	fleet := energy.EuropeanFleet(12)
	fine, err := energy.NewWorld(seed).Generate(fleet, table1Start, time.Hour, s.Days*24)
	if err != nil {
		return PipelineResult{}, err
	}

	// Step 1: latency graph + clique ranking by cov. A 25 ms threshold
	// keeps continental-scale structure (50 ms connects almost all of
	// Europe).
	g, err := graph.New(fleet, 25)
	if err != nil {
		return PipelineResult{}, err
	}
	powers := make([]Series, len(fleet))
	for i := range fleet {
		powers[i] = fine[i].Scale(fleet[i].CapacityMW)
	}
	ranked, err := g.CandidateGroups(3, 3, 50, powers)
	if err != nil {
		return PipelineResult{}, err
	}
	if len(ranked) == 0 {
		return PipelineResult{}, fmt.Errorf("vb: no 3-cliques under 25 ms")
	}
	best := ranked[0]
	cliques, err := g.Cliques(3)
	if err != nil {
		return PipelineResult{}, err
	}
	naive := cliques[0] // first latency-feasible group, variability-blind

	// Both groups run the same app stream; the runs only read it.
	apps, err := table1Apps(s, table1Start)
	if err != nil {
		return PipelineResult{}, err
	}
	run := func(nodes []int) (totalGB, paused float64, err error) {
		group := make([]SiteConfig, len(nodes))
		hourly := make([]Series, len(nodes))
		for i, idx := range nodes {
			group[i], hourly[i] = fleet[idx], fine[idx]
		}
		sc, err := newScenario(s, group, hourly, apps)
		if err != nil {
			return 0, 0, err
		}
		res, err := sim.Run(table1Config(s, core.MIP), sc.in)
		if err != nil {
			return 0, 0, err
		}
		total, _, _, _, err := res.Summary()
		if err != nil {
			return 0, 0, err
		}
		return total, res.PausedStableCoreSteps, nil
	}

	// The two scheduler runs are independent (separate forecast bundles,
	// demands and engine state), so they execute concurrently with
	// identical results to back-to-back serial runs.
	type runOut struct{ totalGB, paused float64 }
	groups := [][]int{best.Nodes, naive}
	runs, err := par.Map(context.Background(), len(groups), func(i int) (runOut, error) {
		total, paused, err := run(groups[i])
		return runOut{total, paused}, err
	})
	if err != nil {
		return PipelineResult{}, err
	}

	out := PipelineResult{
		ChosenCoV:     best.CoV,
		ChosenTotalGB: runs[0].totalGB,
		NaiveTotalGB:  runs[1].totalGB,
		ChosenPaused:  runs[0].paused,
		NaivePaused:   runs[1].paused,
	}
	for _, idx := range best.Nodes {
		out.Chosen = append(out.Chosen, fleet[idx])
	}
	for _, idx := range naive {
		out.Naive = append(out.Naive, fleet[idx])
	}
	ranked2, err := g.RankCliques([][]int{naive}, powers)
	if err != nil {
		return PipelineResult{}, err
	}
	out.NaiveCoV = ranked2[0].CoV
	return out, nil
}

// Report renders the pipeline comparison.
func (r PipelineResult) Report() string {
	name := func(sites []SiteConfig) string {
		s := ""
		for i, c := range sites {
			if i > 0 {
				s += "+"
			}
			s += c.Name
		}
		return s
	}
	return fmt.Sprintf(
		"Fig 6 pipeline on the 12-site fleet:\n"+
			"  cov-ranked group:   %-30s cov=%.2f total=%8.0f GB paused=%.0f\n"+
			"  variability-blind:  %-30s cov=%.2f total=%8.0f GB paused=%.0f\n",
		name(r.Chosen), r.ChosenCoV, r.ChosenTotalGB, r.ChosenPaused,
		name(r.Naive), r.NaiveCoV, r.NaiveTotalGB, r.NaivePaused)
}
