package mip

import (
	"math"
	"testing"

	"github.com/vbcloud/vb/internal/lp"
)

func TestSolveRelaxationRounded(t *testing.T) {
	// The knapsack relaxation is fractional; rounding b down keeps the
	// repair feasible: a=1, b rounds from fractional, c=1.
	sol, err := SolveRelaxationRounded(knapsackProblem())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("repair status %v, want Optimal", sol.Status)
	}
	if sol.Proven {
		t.Fatal("a rounding repair must never claim proven optimality")
	}
	for i, v := range sol.X {
		if v != math.Round(v) {
			t.Fatalf("X[%d] = %v is not integral", i, v)
		}
	}
	// Feasibility: 2a + 3b + c <= 3.
	if got := 2*sol.X[0] + 3*sol.X[1] + sol.X[2]; got > 3+1e-9 {
		t.Fatalf("repair violates knapsack row: %v > 3", got)
	}

	// The reference oracle's repair agrees on feasibility.
	ref, err := repairReference(knapsackProblem(), knapsackProblem().Integer)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Status != lp.Optimal {
		t.Fatalf("reference repair status %v, want Optimal", ref.Status)
	}
	if got := 2*ref.X[0] + 3*ref.X[1] + ref.X[2]; got > 3+1e-9 {
		t.Fatalf("reference repair violates knapsack row: %v > 3", got)
	}
}

func TestSolveRelaxationRoundedInfeasibleRounding(t *testing.T) {
	// Two binaries, y0 + y1 >= 1 but y0 + y1 <= 1, cost symmetric — the
	// relaxation can sit at (0.5, 0.5); forcing both up via >= 0.5 each
	// makes every rounding violate y0 + y1 <= 1.
	p := Problem{
		Problem: lp.Problem{
			NumVars:   2,
			Objective: []float64{1, 1},
			Constraints: []lp.Constraint{
				{Idx: []int32{0}, Val: []float64{1}, Sense: lp.GE, RHS: 0.5},
				{Idx: []int32{1}, Val: []float64{1}, Sense: lp.GE, RHS: 0.5},
				{Idx: []int32{0, 1}, Val: []float64{1, 1}, Sense: lp.LE, RHS: 1},
			},
			Upper: []float64{1, 1},
		},
		Integer: []bool{true, true},
	}
	sol, err := SolveRelaxationRounded(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == lp.Optimal {
		t.Fatalf("impossible rounding reported Optimal with X=%v", sol.X)
	}
}
