package mip

import (
	"math"
	"math/rand"

	"github.com/vbcloud/vb/internal/lp"
)

// FleetConfig sizes a synthetic fleet-scale planning MIP. The paper's own
// experiments plan over 3 sites; the north-star regime is hundreds of
// modular renewable sites and tens of thousands of apps, which this
// generator reaches by aggregating apps into placement cohorts (a fleet
// scheduler does the same — individual apps are far smaller than a site).
type FleetConfig struct {
	Sites int // modular sites (>= 1)
	Apps  int // applications, aggregated into cohorts of ~CohortSize
	Steps int // planning horizon steps (0 = default 4)
	// CohortSize is how many apps share one placement cohort (0 = 200).
	CohortSize int
	// Candidates is how many candidate sites each cohort may run on (0 = 3).
	Candidates int
	Seed       int64
}

// FleetProblem builds the planning MIP for cfg:
//
//   - one continuous allocation variable per (cohort, candidate site, step):
//     cores of that cohort served at that site during that step;
//   - one binary commissioning indicator per sampled site: a site can serve
//     load only if it is commissioned, and commissioning carries a fixed
//     cost (the modular-DC buildout decision);
//   - per (site, step) renewable capacity rows coupling every cohort
//     allocation at that site against a time-varying supply profile;
//   - per (cohort, step) demand rows requiring the cohort's cores be served
//     across its candidate sites.
//
// Constraint rows therefore scale as Sites·Steps + Cohorts·Steps and the
// matrix is extremely sparse (each column touches two rows plus a linking
// row), which is exactly the structure that breaks an m×m dense basis
// inverse: at 200 sites x 20k apps the basis has m > 1000 and the dense
// representation needs m² floats per instance while the sparse LU stays
// near the nonzero count.
func FleetProblem(cfg FleetConfig) Problem {
	rng := rand.New(rand.NewSource(cfg.Seed))
	steps := cfg.Steps
	if steps <= 0 {
		steps = 4
	}
	cohortSize := cfg.CohortSize
	if cohortSize <= 0 {
		cohortSize = 200
	}
	cand := cfg.Candidates
	if cand <= 0 {
		cand = 3
	}
	cohorts := cfg.Apps / cohortSize
	if cohorts < 8 {
		cohorts = 8
	}
	if cand > cfg.Sites {
		cand = cfg.Sites
	}

	// Binary indicators: a sampled subset of sites carries an explicit
	// commissioning decision (enough binaries for real branching without
	// the tree itself dominating the benchmark).
	nBin := 12
	if nBin > cfg.Sites {
		nBin = cfg.Sites
	}

	nCont := cohorts * cand * steps
	n := nCont + nBin
	p := Problem{
		Problem: lp.Problem{
			NumVars:   n,
			Objective: make([]float64, n),
			Lower:     make([]float64, n),
			Upper:     make([]float64, n),
		},
		Integer: make([]bool, n),
	}

	// Candidate sites per cohort: a deterministic stride sample so load
	// spreads across the whole fleet.
	candSite := make([]int, cohorts*cand)
	for c := 0; c < cohorts; c++ {
		for k := 0; k < cand; k++ {
			candSite[c*cand+k] = (c*7 + k*k + k) % cfg.Sites
		}
	}
	// Which binary (if any) governs each site. Sites 0..nBin-1 carry the
	// explicit commissioning decision; the rest are always-on.
	siteBin := func(s int) int {
		if s < nBin {
			return s
		}
		return -1
	}

	varOf := func(c, k, t int) int { return (c*cand+k)*steps + t }
	for c := 0; c < cohorts; c++ {
		for k := 0; k < cand; k++ {
			// Serving cost varies by site (transmission distance, efficiency).
			base := 1 + rng.Float64()*2
			for t := 0; t < steps; t++ {
				j := varOf(c, k, t)
				p.Objective[j] = base * (1 + 0.1*math.Sin(float64(t)))
				p.Upper[j] = math.Inf(1)
			}
		}
	}
	for b := 0; b < nBin; b++ {
		j := nCont + b
		p.Objective[j] = 40 + rng.Float64()*20 // commissioning cost
		p.Upper[j] = 1
		p.Integer[j] = true
	}

	// Demand per cohort-step (cores).
	demand := make([]float64, cohorts*steps)
	for c := 0; c < cohorts; c++ {
		base := float64(cohortSize) * (0.4 + 0.4*rng.Float64())
		for t := 0; t < steps; t++ {
			demand[c*steps+t] = base * (0.8 + 0.2*math.Sin(float64(c+t)))
		}
	}
	// Renewable capacity per site-step: a fraction of the demand that could
	// be routed to the site. Each cohort has `cand` candidates each able to
	// carry ~60% of the local load, so the fleet is always feasible but no
	// single site can absorb its whole neighborhood — the LP must split.
	routable := make([]float64, cfg.Sites*steps)
	for ci := 0; ci < cohorts; ci++ {
		for k := 0; k < cand; k++ {
			s := candSite[ci*cand+k]
			for t := 0; t < steps; t++ {
				routable[s*steps+t] += demand[ci*steps+t]
			}
		}
	}

	// Capacity rows: for each (site, step), sum of allocations there <= cap
	// (and for governed sites, <= cap * indicator).
	for s := 0; s < cfg.Sites; s++ {
		capScale := 0.55 + 0.25*rng.Float64()
		for t := 0; t < steps; t++ {
			c := lp.Constraint{Sense: lp.LE}
			for ci := 0; ci < cohorts; ci++ {
				for k := 0; k < cand; k++ {
					if candSite[ci*cand+k] == s {
						c.Idx = append(c.Idx, int32(varOf(ci, k, t)))
						c.Val = append(c.Val, 1)
					}
				}
			}
			if len(c.Idx) == 0 {
				continue
			}
			siteCap := routable[s*steps+t] * capScale * (0.9 + 0.1*math.Sin(float64(s+t)))
			if b := siteBin(s); b >= 0 {
				c.Idx = append(c.Idx, int32(nCont+b))
				c.Val = append(c.Val, -siteCap)
				c.RHS = 0
			} else {
				c.RHS = siteCap
			}
			p.Constraints = append(p.Constraints, c)
		}
	}
	// Demand rows: for each (cohort, step), allocations across candidates
	// must meet the cohort demand.
	for ci := 0; ci < cohorts; ci++ {
		for t := 0; t < steps; t++ {
			c := lp.Constraint{Sense: lp.GE, RHS: demand[ci*steps+t]}
			for k := 0; k < cand; k++ {
				c.Idx = append(c.Idx, int32(varOf(ci, k, t)))
				c.Val = append(c.Val, 1)
			}
			p.Constraints = append(p.Constraints, c)
		}
	}
	return p
}
