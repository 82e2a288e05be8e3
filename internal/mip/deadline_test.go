package mip

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/lp"
)

// knapsackProblem returns a small binary maximization with a fractional
// relaxation, so branch and bound must actually branch.
func knapsackProblem() Problem {
	// max 5a + 4b + 3c  s.t.  2a + 3b + c <= 3,  binaries.
	return Problem{
		Problem: lp.Problem{
			NumVars:     3,
			Objective:   []float64{5, 4, 3},
			Maximize:    true,
			Constraints: []lp.Constraint{{Coeffs: []float64{2, 3, 1}, Sense: lp.LE, RHS: 3}},
			Upper:       []float64{1, 1, 1},
		},
		Integer: []bool{true, true, true},
	}
}

func TestExpiredDeadlineReturnsWithoutError(t *testing.T) {
	for _, workers := range []int{0, 4} {
		// 1 ns is expired by the first interrupt poll (compilation alone
		// takes microseconds), so the search stops before its first node.
		sol, err := Solve(knapsackProblem(), Options{Deadline: time.Nanosecond, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: expired deadline returned error %v", workers, err)
		}
		if !sol.DeadlineExceeded {
			t.Fatalf("workers=%d: DeadlineExceeded not set", workers)
		}
		if sol.Proven {
			t.Fatalf("workers=%d: truncated search claims proven optimality", workers)
		}
	}
}

func TestCanceledContextBehavesLikeDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := Solve(knapsackProblem(), Options{Ctx: ctx})
	if err != nil {
		t.Fatalf("canceled ctx returned error %v", err)
	}
	if !sol.DeadlineExceeded || sol.Proven {
		t.Fatalf("canceled ctx: DeadlineExceeded=%v Proven=%v, want true/false", sol.DeadlineExceeded, sol.Proven)
	}
}

func TestDeadlineKeepsIncumbentAndClearsWarmHook(t *testing.T) {
	// Generous deadline: the tiny knapsack solves to optimality well within
	// it, proving an armed-but-unexpired deadline changes nothing.
	ws := &WarmState{}
	sol, err := Solve(knapsackProblem(), Options{Deadline: time.Hour, Warm: ws})
	if err != nil {
		t.Fatal(err)
	}
	if sol.DeadlineExceeded || !sol.Proven || sol.Status != lp.Optimal {
		t.Fatalf("unexpired deadline perturbed solve: %+v", sol)
	}
	if sol.Objective != 8 { // a=1, c=1
		t.Fatalf("objective = %v, want 8", sol.Objective)
	}
	// The warm instance must not retain the old interrupt hook: a
	// subsequent solve with no deadline must run to optimality.
	sol2, err := Solve(knapsackProblem(), Options{Warm: ws})
	if err != nil {
		t.Fatal(err)
	}
	if !sol2.WarmHit {
		t.Fatal("warm state not reused")
	}
	if sol2.DeadlineExceeded || !sol2.Proven {
		t.Fatalf("stale interrupt hook leaked into warm successor: %+v", sol2)
	}
}

func TestTruncatedSearchKeepsIncumbent(t *testing.T) {
	// MaxNodes = 3 lets the root and its two children run: enough to find
	// an integer incumbent on this problem but not to exhaust the tree on
	// harder ones. The incumbent must surface with Proven unset or the
	// bound prune must have finished the tree; either way no error and a
	// usable X.
	sol, err := Solve(knapsackProblem(), Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == lp.Optimal && sol.X == nil {
		t.Fatal("optimal status without solution vector")
	}
	if sol.Nodes > 3 {
		t.Fatalf("explored %d nodes past the cap", sol.Nodes)
	}
}

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
				{Coeffs: []float64{1, 0}, Sense: lp.GE, RHS: 0.5},
				{Coeffs: []float64{0, 1}, Sense: lp.GE, RHS: 0.5},
				{Coeffs: []float64{1, 1}, Sense: lp.LE, RHS: 1},
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

func TestDeadlineMidSearchKeepsBestIncumbent(t *testing.T) {
	// A larger knapsack where the search takes many nodes: fire the
	// interrupt via an already-canceled context after seeding an incumbent
	// through a tiny node budget, then confirm a full run under a
	// mid-flight cancel still returns cleanly at every worker count.
	n := 14
	obj := make([]float64, n)
	row := make([]float64, n)
	upper := make([]float64, n)
	integer := make([]bool, n)
	for i := 0; i < n; i++ {
		obj[i] = float64(3 + (i*7)%11)
		row[i] = float64(2 + (i*5)%7)
		upper[i] = 1
		integer[i] = true
	}
	p := Problem{
		Problem: lp.Problem{
			NumVars:     n,
			Objective:   obj,
			Maximize:    true,
			Constraints: []lp.Constraint{{Coeffs: row, Sense: lp.LE, RHS: 17}},
			Upper:       upper,
		},
		Integer: integer,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Microsecond)
		cancel()
	}()
	for _, workers := range []int{0, 2} {
		sol, err := Solve(p, Options{Ctx: ctx, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Whatever the race between cancel and completion, the result is
		// either a finished search or a truncated one with the flag set.
		if !sol.Proven && !sol.DeadlineExceeded && sol.Nodes < 200000 {
			t.Fatalf("workers=%d: unproven, un-truncated result: %+v", workers, sol)
		}
	}
}
