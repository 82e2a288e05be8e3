package mip

import (
	"fmt"
	"math"
	"testing"

	"github.com/vbcloud/vb/internal/lp"
)

// sameSolution fails unless got and want agree bit for bit in every field.
func sameSolution(t *testing.T, name string, got, want Solution) {
	t.Helper()
	type summary struct {
		Status              lp.Status
		ObjectiveBits       uint64
		Nodes               int
		Proven              bool
		Pivots, Refactors   int64
		EtaChainLen, Length int
	}
	sum := func(s Solution) summary {
		return summary{s.Status, math.Float64bits(s.Objective), s.Nodes, s.Proven, s.Pivots, s.Refactors, s.EtaChainLen, len(s.X)}
	}
	if g, w := sum(got), sum(want); g != w {
		t.Fatalf("%s: reused solver %+v, fresh %+v", name, g, w)
	}
	for j := range want.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			t.Fatalf("%s: x[%d] = %v, fresh solver %v", name, j, got.X[j], want.X[j])
		}
	}
}

// TestSolverReuseMatchesFresh runs branch and bound and the rounding
// repair on one Solver over problems that grow and shrink, including
// infeasible, unbounded and node-truncated ones, and requires every result
// to equal a fresh Solver's bit for bit. Every Solution.X it returned is
// kept, and at the end each must still hold the values it was returned
// with: no later solve may write through a returned slice.
func TestSolverReuseMatchesFresh(t *testing.T) {
	probs := []Problem{
		benchMIP(24, 6, 30, 17),
		knapsackProblem(),
		benchMIP(60, 10, 90, 3),
		{Problem: lp.Problem{NumVars: 2, Objective: []float64{1, 1},
			Constraints: []lp.Constraint{{Idx: []int32{0, 1}, Val: []float64{1, 1}, Sense: lp.GE, RHS: 0.5},
				{Idx: []int32{0, 1}, Val: []float64{1, 1}, Sense: lp.LE, RHS: 0.7}}},
			Integer: []bool{true, true}}, // infeasible: no integer point in [0.5, 0.7]
		benchMIP(12, 4, 15, 5),
		{Problem: lp.Problem{NumVars: 2, Objective: []float64{1, 1}, Maximize: true,
			Constraints: []lp.Constraint{{Idx: []int32{0, 1}, Val: []float64{1, -1}, Sense: lp.LE, RHS: 1}}},
			Integer: []bool{true}}, // unbounded
		benchMIP(40, 8, 60, 11),
	}
	var s Solver
	type kept struct {
		name string
		x    []float64
		copy []float64
	}
	var keep []kept
	for round := 0; round < 2; round++ {
		for i, p := range probs {
			for _, maxNodes := range []int{0, 3} {
				name := fmt.Sprintf("round %d problem %d maxNodes %d", round, i, maxNodes)
				got, err := s.Solve(p, Options{MaxNodes: maxNodes})
				want, wantErr := Solve(p, Options{MaxNodes: maxNodes})
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("%s: error %v, fresh solver %v", name, err, wantErr)
				}
				sameSolution(t, name, got, want)
				keep = append(keep, kept{name, got.X, append([]float64(nil), got.X...)})
			}
			name := fmt.Sprintf("round %d problem %d rounded", round, i)
			got, err := s.SolveRelaxationRounded(p)
			want, wantErr := SolveRelaxationRounded(p)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: error %v, fresh solver %v", name, err, wantErr)
			}
			sameSolution(t, name, got, want)
			keep = append(keep, kept{name, got.X, append([]float64(nil), got.X...)})
		}
	}
	optimal := 0
	for _, k := range keep {
		if k.x != nil {
			optimal++
		}
		for j := range k.copy {
			if math.Float64bits(k.x[j]) != math.Float64bits(k.copy[j]) {
				t.Fatalf("%s: kept X[%d] changed from %v to %v after later solves", k.name, j, k.copy[j], k.x[j])
			}
		}
	}
	if optimal < len(keep)/2 {
		t.Fatalf("only %d of %d solves returned an X", optimal, len(keep))
	}
}
