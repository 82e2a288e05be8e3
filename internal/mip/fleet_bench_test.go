package mip

import (
	"fmt"
	"math"
	"testing"

	"github.com/vbcloud/vb/internal/lp"
)

// fleetRegimes are the benchmark sizes: the paper's toy regime scaled to
// the modular-fleet north star. The 200x20000 point is the acceptance
// regime for the sparse-LU kernel, whose memory must stay sub-quadratic in
// the row count.
var fleetRegimes = []FleetConfig{
	{Sites: 20, Apps: 1000, Seed: 1},
	{Sites: 50, Apps: 5000, Seed: 1},
	{Sites: 200, Apps: 20000, CohortSize: 100, Seed: 1},
}

// BenchmarkFleetPlan solves one full fleet planning MIP per iteration on a
// fresh instance (cold compile + solve). A fresh instance per iteration
// makes B/op reflect the basis memory: the sparse LU's nonzeros, where an
// explicit m×m inverse would grow with the square of the row count. The
// "/sparse" suffix is kept so recorded results (BENCH_8.json onward) and
// CI's B/op ceiling on the largest regime keep matching by name.
func BenchmarkFleetPlan(b *testing.B) {
	for _, cfg := range fleetRegimes {
		p := FleetProblem(cfg)
		m := len(p.Constraints)
		b.Run(fmt.Sprintf("sites=%d/apps=%d/sparse", cfg.Sites, cfg.Apps), func(b *testing.B) {
			var nodes, pivots, refactors int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := Solve(p, Options{MaxNodes: 50})
				if err != nil {
					b.Fatal(err)
				}
				if sol.Status != lp.Optimal {
					b.Fatalf("status %v", sol.Status)
				}
				nodes += int64(sol.Nodes)
				pivots += sol.Pivots
				refactors += sol.Refactors
			}
			b.StopTimer()
			b.ReportMetric(float64(m), "rows")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
			b.ReportMetric(float64(refactors)/float64(b.N), "refactors/op")
		})
	}
}

// TestFleetProblemSolvable pins the generator contract the benchmarks rely
// on: every regime compiles and is feasible, and the incumbent the solver
// returns is integral and satisfies every bound and row.
func TestFleetProblemSolvable(t *testing.T) {
	for _, cfg := range []FleetConfig{
		{Sites: 4, Apps: 100, Seed: 3},
		{Sites: 20, Apps: 1000, Seed: 1},
		{Sites: 50, Apps: 5000, Seed: 1},
	} {
		p := FleetProblem(cfg)
		if err := p.Problem.Validate(); err != nil {
			t.Fatalf("sites=%d apps=%d: invalid problem: %v", cfg.Sites, cfg.Apps, err)
		}
		sol, err := Solve(p, Options{MaxNodes: 50})
		if err != nil {
			t.Fatalf("sites=%d apps=%d: %v", cfg.Sites, cfg.Apps, err)
		}
		if sol.Status != lp.Optimal {
			t.Fatalf("sites=%d apps=%d: status %v", cfg.Sites, cfg.Apps, sol.Status)
		}
		const tol = 1e-6
		for j, x := range sol.X {
			if j < len(p.Integer) && p.Integer[j] && x != math.Round(x) {
				t.Fatalf("sites=%d apps=%d: x[%d]=%v not integral", cfg.Sites, cfg.Apps, j, x)
			}
			if x < p.LowerOf(j)-tol || x > p.UpperOf(j)+tol {
				t.Fatalf("sites=%d apps=%d: x[%d]=%v outside [%g,%g]", cfg.Sites, cfg.Apps, j, x, p.LowerOf(j), p.UpperOf(j))
			}
		}
		for i, c := range p.Constraints {
			lhs := 0.0
			for k, v := range c.Val {
				lhs += v * sol.X[c.Idx[k]]
			}
			scale := tol * (1 + math.Abs(c.RHS))
			if (c.Sense == lp.LE && lhs > c.RHS+scale) || (c.Sense == lp.GE && lhs < c.RHS-scale) ||
				(c.Sense == lp.EQ && math.Abs(lhs-c.RHS) > scale) {
				t.Fatalf("sites=%d apps=%d: row %d violated: %v %v %v", cfg.Sites, cfg.Apps, i, lhs, c.Sense, c.RHS)
			}
		}
	}
}
