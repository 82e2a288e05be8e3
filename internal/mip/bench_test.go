package mip

import (
	"math"
	"math/rand"
	"testing"

	"github.com/vbcloud/vb/internal/lp"
)

// benchMIP builds a deterministic site-selection-shaped MIP: continuous
// allocation columns plus a handful of binary indicator columns tied to them
// by linking rows, forcing real branch-and-bound work.
func benchMIP(nCont, nBin, nRows int, seed int64) Problem {
	rng := rand.New(rand.NewSource(seed))
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
	for j := 0; j < nCont; j++ {
		p.Objective[j] = 1 + rng.Float64()*3
		p.Upper[j] = math.Inf(1)
	}
	for j := nCont; j < n; j++ {
		p.Objective[j] = 0.5 + rng.Float64()
		p.Upper[j] = 1
		p.Integer[j] = true
	}
	coeffs := make([]float64, n)
	for i := 0; i < nRows; i++ {
		clear(coeffs)
		var c lp.Constraint
		switch i % 3 {
		case 0: // demand across a few continuous columns
			for k := 0; k < 4; k++ {
				coeffs[rng.Intn(nCont)] = 1
			}
			c.Sense = lp.GE
			c.RHS = 10 + rng.Float64()*20
		case 1: // linking: a continuous column only usable when its bit is on
			coeffs[rng.Intn(nCont)] = 1
			coeffs[nCont+rng.Intn(nBin)] = -40
			c.Sense = lp.LE
			c.RHS = 0
		default: // cardinality pressure on the binaries
			for j := nCont; j < n; j++ {
				coeffs[j] = 1
			}
			c.Sense = lp.LE
			c.RHS = float64(1 + nBin/2)
		}
		for j, v := range coeffs {
			if v != 0 {
				c.Idx = append(c.Idx, int32(j))
				c.Val = append(c.Val, v)
			}
		}
		p.Constraints = append(p.Constraints, c)
	}
	return p
}

// BenchmarkMIPSolveNode measures one full branch-and-bound run per iteration on a
// fresh solver state: the per-placement cost when nothing is carried over.
func BenchmarkMIPSolveNode(b *testing.B) {
	p := benchMIP(24, 6, 30, 17)
	var nodes, pivots int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := Solve(p, Options{MaxNodes: 2000})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
		nodes += int64(sol.Nodes)
		pivots += sol.Pivots
	}
	b.StopTimer()
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}

// BenchmarkMIPSolveReference runs the row-branching reference oracle
// (reference_test.go) on the same problem for a like-for-like comparison.
func BenchmarkMIPSolveReference(b *testing.B) {
	p := benchMIP(24, 6, 30, 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := solveReference(p, Options{MaxNodes: 2000})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}
