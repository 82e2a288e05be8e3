package lp

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func solveOK(t *testing.T, p Problem) Solution {
	t.Helper()
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	return s
}

func TestValidate(t *testing.T) {
	bad := []Problem{
		{},
		{NumVars: 2, Objective: []float64{1, 2, 3}},
		{NumVars: 1, Constraints: []Constraint{{Idx: []int32{0, 1}, Val: []float64{1, 2}}}},
		{NumVars: 1, Constraints: []Constraint{{Idx: []int32{0}, Val: []float64{1}, Sense: Sense(9)}}},
		{NumVars: 1, Constraints: []Constraint{{Idx: []int32{0}, Val: []float64{math.NaN()}}}},
		{NumVars: 1, Constraints: []Constraint{{Idx: []int32{0}, Val: []float64{1}, RHS: math.Inf(1)}}},
		{NumVars: 1, Objective: []float64{math.NaN()}},
	}
	for i, p := range bad {
		if _, err := Solve(p); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
}

// TestValidateSparseRows checks that Validate refuses every malformed
// sparse row with ErrBadProblem and names the constraint.
func TestValidateSparseRows(t *testing.T) {
	for _, c := range []struct {
		name string
		row  Constraint
	}{
		{"index at NumVars", Constraint{Idx: []int32{0, 3}, Val: []float64{1, 1}}},
		{"index past NumVars", Constraint{Idx: []int32{9}, Val: []float64{1}}},
		{"negative index", Constraint{Idx: []int32{-1, 0}, Val: []float64{1, 1}}},
		{"repeated index", Constraint{Idx: []int32{0, 1, 1}, Val: []float64{1, 2, 3}}},
		{"decreasing index", Constraint{Idx: []int32{2, 0}, Val: []float64{1, 1}}},
		{"more indices than values", Constraint{Idx: []int32{0, 1}, Val: []float64{1}}},
		{"more values than indices", Constraint{Idx: []int32{0}, Val: []float64{1, 2}}},
		{"NaN value", Constraint{Idx: []int32{0, 2}, Val: []float64{1, math.NaN()}}},
		{"+Inf value", Constraint{Idx: []int32{1}, Val: []float64{math.Inf(1)}}},
		{"-Inf value", Constraint{Idx: []int32{0, 1}, Val: []float64{math.Inf(-1), 1}}},
	} {
		p := Problem{
			NumVars: 3,
			Constraints: []Constraint{
				{Idx: []int32{0, 1, 2}, Val: []float64{1, 0, 2}, Sense: LE, RHS: 1}, // explicit zero is fine
				c.row,
			},
		}
		err := p.Validate()
		if !errors.Is(err, ErrBadProblem) {
			t.Errorf("%s: Validate = %v, want ErrBadProblem", c.name, err)
			continue
		}
		if !strings.Contains(err.Error(), "constraint 1 ") {
			t.Errorf("%s: error %q does not name constraint 1", c.name, err)
		}
	}
	ok := Problem{NumVars: 3, Constraints: []Constraint{{Idx: []int32{0, 2}, Val: []float64{1, 0}, Sense: GE, RHS: 1}, {}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("well-formed rows (one with no terms) rejected: %v", err)
	}
}

func TestSenseStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Error("sense strings")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("status strings")
	}
}

// Classic 2-variable maximization:
// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> x=2, y=6, obj=36.
func TestTextbookMax(t *testing.T) {
	s := solveOK(t, Problem{
		NumVars:   2,
		Objective: []float64{3, 5},
		Maximize:  true,
		Constraints: []Constraint{
			{Idx: []int32{0}, Val: []float64{1}, Sense: LE, RHS: 4},
			{Idx: []int32{1}, Val: []float64{2}, Sense: LE, RHS: 12},
			{Idx: []int32{0, 1}, Val: []float64{3, 2}, Sense: LE, RHS: 18},
		},
	})
	if !approx(s.Objective, 36) || !approx(s.X[0], 2) || !approx(s.X[1], 6) {
		t.Errorf("got %+v, want x=(2,6) obj=36", s)
	}
}

// Minimization with GE constraints (diet-style):
// min 0.6x + y s.t. 10x + 4y >= 20, 5x + 5y >= 20 -> x=1, y=3... check:
// 10+12=22>=20, 5+15=20. obj=0.6+3=3.6. Corner candidates: intersection of
// the two constraints: 10x+4y=20, 5x+5y=20 -> x=2/3... solve: from second
// x+y=4 -> y=4-x; 10x+16-4x=20 -> 6x=4 -> x=2/3, y=10/3; obj=0.4+10/3=3.733.
// Other corners: x=0,y=5 -> obj 5; y=0,x=4 -> obj 2.4 (check 10*4=40>=20,
// 5*4=20>=20: feasible!) -> optimum x=4, y=0, obj=2.4.
func TestDietMin(t *testing.T) {
	s := solveOK(t, Problem{
		NumVars:   2,
		Objective: []float64{0.6, 1},
		Constraints: []Constraint{
			{Idx: []int32{0, 1}, Val: []float64{10, 4}, Sense: GE, RHS: 20},
			{Idx: []int32{0, 1}, Val: []float64{5, 5}, Sense: GE, RHS: 20},
		},
	})
	if !approx(s.Objective, 2.4) || !approx(s.X[0], 4) || !approx(s.X[1], 0) {
		t.Errorf("got obj=%v x=%v, want obj=2.4 x=(4,0)", s.Objective, s.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 2y s.t. x + y == 10, x <= 4 -> x=4, y=6, obj=16.
	s := solveOK(t, Problem{
		NumVars:   2,
		Objective: []float64{1, 2},
		Constraints: []Constraint{
			{Idx: []int32{0, 1}, Val: []float64{1, 1}, Sense: EQ, RHS: 10},
			{Idx: []int32{0}, Val: []float64{1}, Sense: LE, RHS: 4},
		},
	})
	if !approx(s.Objective, 16) || !approx(s.X[0], 4) || !approx(s.X[1], 6) {
		t.Errorf("got obj=%v x=%v", s.Objective, s.X)
	}
}

func TestInfeasible(t *testing.T) {
	s, err := Solve(Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			{Idx: []int32{0}, Val: []float64{1}, Sense: LE, RHS: 1},
			{Idx: []int32{0}, Val: []float64{1}, Sense: GE, RHS: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	s, err := Solve(Problem{
		NumVars:   1,
		Objective: []float64{1},
		Maximize:  true,
		Constraints: []Constraint{
			{Idx: []int32{0}, Val: []float64{1}, Sense: GE, RHS: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

func TestNegativeRHSNormalized(t *testing.T) {
	// x >= 0, -x <= -3 means x >= 3; min x -> 3.
	s := solveOK(t, Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			{Idx: []int32{0}, Val: []float64{-1}, Sense: LE, RHS: -3},
		},
	})
	if !approx(s.X[0], 3) {
		t.Errorf("x = %v, want 3", s.X[0])
	}
}

func TestNoConstraintsMin(t *testing.T) {
	// min x with x >= 0 and no constraints -> 0.
	s := solveOK(t, Problem{NumVars: 1, Objective: []float64{1}})
	if !approx(s.Objective, 0) {
		t.Errorf("obj = %v", s.Objective)
	}
}

func TestDegenerateNoCycle(t *testing.T) {
	// A classic degenerate problem (Beale's example structure); Bland's
	// rule must terminate.
	s := solveOK(t, Problem{
		NumVars:   4,
		Objective: []float64{-0.75, 150, -0.02, 6},
		Constraints: []Constraint{
			{Idx: []int32{0, 1, 2, 3}, Val: []float64{0.25, -60, -0.04, 9}, Sense: LE, RHS: 0},
			{Idx: []int32{0, 1, 2, 3}, Val: []float64{0.5, -90, -0.02, 3}, Sense: LE, RHS: 0},
			{Idx: []int32{2}, Val: []float64{1}, Sense: LE, RHS: 1},
		},
	})
	if !approx(s.Objective, -0.05) {
		t.Errorf("Beale optimum = %v, want -0.05", s.Objective)
	}
}

func TestZeroPaddedCoeffs(t *testing.T) {
	// Variables a row leaves out have zero coefficients.
	s := solveOK(t, Problem{
		NumVars:   3,
		Objective: []float64{1}, // only x0 costs
		Constraints: []Constraint{
			{Idx: []int32{0}, Val: []float64{1}, Sense: GE, RHS: 2},
		},
	})
	if !approx(s.X[0], 2) || !approx(s.Objective, 2) {
		t.Errorf("got %+v", s)
	}
}

func TestMinimaxPattern(t *testing.T) {
	// The pattern the scheduler uses for the peak objective (O2): minimize
	// t subject to each load_i <= t.
	// loads: x1+x2 = 10 split across two slots, t >= x1, t >= x2; min t
	// -> 5.
	s := solveOK(t, Problem{
		NumVars:   3, // x1, x2, t
		Objective: []float64{0, 0, 1},
		Constraints: []Constraint{
			{Idx: []int32{0, 1}, Val: []float64{1, 1}, Sense: EQ, RHS: 10},
			{Idx: []int32{0, 2}, Val: []float64{1, -1}, Sense: LE, RHS: 0},
			{Idx: []int32{1, 2}, Val: []float64{1, -1}, Sense: LE, RHS: 0},
		},
	})
	if !approx(s.Objective, 5) {
		t.Errorf("minimax = %v, want 5", s.Objective)
	}
}

func TestRedundantEquality(t *testing.T) {
	// Duplicate equality rows leave a redundant artificial basic at zero;
	// solver must still find the optimum.
	s := solveOK(t, Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Idx: []int32{0, 1}, Val: []float64{1, 1}, Sense: EQ, RHS: 4},
			{Idx: []int32{0, 1}, Val: []float64{2, 2}, Sense: EQ, RHS: 8},
		},
	})
	if !approx(s.Objective, 4) {
		t.Errorf("obj = %v, want 4", s.Objective)
	}
}

func TestLargerTransportProblem(t *testing.T) {
	// 2 supplies x 3 demands transportation problem.
	// supply: 20, 30; demand: 10, 25, 15
	// cost: [8 6 10; 9 12 13] -> known optimum 310:
	// s1->d2 20 @6 =120; s2->d1 10@9=90, s2->d2 5@12=60, s2->d3 15@13=195
	// total = 120+90+60+195 = 465? Let's verify optimum differently:
	// Actually compute with the solver and check constraints + optimality
	// against brute force over vertices is overkill; assert feasibility
	// and a known bound instead.
	p := Problem{
		NumVars:   6, // x11 x12 x13 x21 x22 x23
		Objective: []float64{8, 6, 10, 9, 12, 13},
		Constraints: []Constraint{
			{Idx: []int32{0, 1, 2}, Val: []float64{1, 1, 1}, Sense: LE, RHS: 20},
			{Idx: []int32{3, 4, 5}, Val: []float64{1, 1, 1}, Sense: LE, RHS: 30},
			{Idx: []int32{0, 3}, Val: []float64{1, 1}, Sense: GE, RHS: 10},
			{Idx: []int32{1, 4}, Val: []float64{1, 1}, Sense: GE, RHS: 25},
			{Idx: []int32{2, 5}, Val: []float64{1, 1}, Sense: GE, RHS: 15},
		},
	}
	s := solveOK(t, p)
	// Feasibility.
	if s.X[0]+s.X[1]+s.X[2] > 20+1e-6 || s.X[3]+s.X[4]+s.X[5] > 30+1e-6 {
		t.Errorf("supply violated: %v", s.X)
	}
	if s.X[0]+s.X[3] < 10-1e-6 || s.X[1]+s.X[4] < 25-1e-6 || s.X[2]+s.X[5] < 15-1e-6 {
		t.Errorf("demand violated: %v", s.X)
	}
	// Known optimal value for this instance is 465.
	if !approx(s.Objective, 465) {
		t.Errorf("obj = %v, want 465", s.Objective)
	}
}

// Property: for random feasible-by-construction problems, the solver returns
// a feasible solution whose objective is at most that of a known feasible
// point.
func TestPropSolverBeatsKnownPoint(t *testing.T) {
	f := func(seedRaw []byte) bool {
		if len(seedRaw) < 8 {
			return true
		}
		// Build: min c·x s.t. x_i <= u_i (u_i > 0), sum x >= s where s <=
		// sum u. Known feasible point: x = u.
		n := int(seedRaw[0]%4) + 2
		c := make([]float64, n)
		u := make([]float64, n)
		var sumU float64
		for i := 0; i < n; i++ {
			c[i] = float64(seedRaw[(i+1)%len(seedRaw)]%20) + 1
			u[i] = float64(seedRaw[(i+3)%len(seedRaw)]%10) + 1
			sumU += u[i]
		}
		s := sumU * float64(seedRaw[1]%100) / 100
		cons := make([]Constraint, 0, n+1)
		all := Constraint{Sense: GE, RHS: s}
		for i := 0; i < n; i++ {
			cons = append(cons, Constraint{Idx: []int32{int32(i)}, Val: []float64{1}, Sense: LE, RHS: u[i]})
			all.Idx = append(all.Idx, int32(i))
			all.Val = append(all.Val, 1)
		}
		cons = append(cons, all)
		sol, err := Solve(Problem{NumVars: n, Objective: c, Constraints: cons})
		if err != nil || sol.Status != Optimal {
			return false
		}
		// Feasible?
		var tot, knownObj float64
		for i := 0; i < n; i++ {
			if sol.X[i] < -1e-6 || sol.X[i] > u[i]+1e-6 {
				return false
			}
			tot += sol.X[i]
			knownObj += c[i] * u[i]
		}
		if tot < s-1e-6 {
			return false
		}
		return sol.Objective <= knownObj+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: for random feasible minimization problems over a box, no
// feasible lattice point beats the simplex optimum (one-sided optimality
// check against brute force).
func TestPropNoLatticePointBeatsOptimum(t *testing.T) {
	f := func(seed []byte) bool {
		if len(seed) < 10 {
			return true
		}
		n := 2 + int(seed[0]%2) // 2 or 3 vars
		// Box: x_i <= u_i; one coupling constraint sum a_i x_i >= b kept
		// feasible by construction (b = half of max attainable).
		u := make([]float64, n)
		a := make([]float64, n)
		c := make([]float64, n)
		var maxAttain float64
		for i := 0; i < n; i++ {
			u[i] = float64(seed[1+i]%5) + 1
			a[i] = float64(seed[4+i]%4) + 1
			c[i] = float64(seed[7+i]%9) - 4 // costs may be negative
			maxAttain += a[i] * u[i]
		}
		b := maxAttain / 2
		cons := make([]Constraint, 0, n+1)
		cover := Constraint{Sense: GE, RHS: b}
		for i := 0; i < n; i++ {
			cons = append(cons, Constraint{Idx: []int32{int32(i)}, Val: []float64{1}, Sense: LE, RHS: u[i]})
			cover.Idx = append(cover.Idx, int32(i))
			cover.Val = append(cover.Val, a[i])
		}
		cons = append(cons, cover)
		sol, err := Solve(Problem{NumVars: n, Objective: c, Constraints: cons})
		if err != nil || sol.Status != Optimal {
			return false
		}
		// Brute force over a 0.5-step lattice inside the box.
		step := 0.5
		var walk func(i int, x []float64) bool
		walk = func(i int, x []float64) bool {
			if i == n {
				var dot, obj float64
				for j := 0; j < n; j++ {
					dot += a[j] * x[j]
					obj += c[j] * x[j]
				}
				if dot >= b-1e-9 && obj < sol.Objective-1e-6 {
					return false // lattice point beats "optimum"
				}
				return true
			}
			for v := 0.0; v <= u[i]+1e-9; v += step {
				x[i] = v
				if !walk(i+1, x) {
					return false
				}
			}
			return true
		}
		return walk(0, make([]float64, n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
