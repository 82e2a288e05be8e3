package mip

import (
	"math"
	"math/rand"
	"testing"

	"github.com/vbcloud/vb/internal/lp"
)

// randomMIP draws a small mixed-integer program with mixed senses, finite
// boxes on the integer variables (so branching terminates), and a mix of
// integer and continuous columns.
func randomMIP(rng *rand.Rand) Problem {
	n := 1 + rng.Intn(6)
	m := 1 + rng.Intn(6)
	p := Problem{
		Problem: lp.Problem{
			NumVars:   n,
			Objective: make([]float64, n),
			Maximize:  rng.Intn(2) == 0,
			Lower:     make([]float64, n),
			Upper:     make([]float64, n),
		},
		Integer: make([]bool, n),
	}
	for j := 0; j < n; j++ {
		p.Objective[j] = math.Round(rng.NormFloat64()*10) / 4
		p.Integer[j] = rng.Intn(2) == 0
		if p.Integer[j] {
			p.Lower[j] = float64(rng.Intn(3)) - 1
			p.Upper[j] = p.Lower[j] + float64(1+rng.Intn(5))
		} else {
			p.Lower[j] = 0
			if rng.Intn(2) == 0 {
				p.Upper[j] = float64(1 + rng.Intn(10))
			} else {
				p.Upper[j] = math.Inf(1)
			}
		}
	}
	for i := 0; i < m; i++ {
		c := lp.Constraint{Coeffs: make([]float64, n), Sense: lp.Sense(rng.Intn(3))}
		nz := 0
		for j := range c.Coeffs {
			if rng.Intn(3) > 0 {
				c.Coeffs[j] = math.Round(rng.NormFloat64()*8) / 4
				if c.Coeffs[j] != 0 {
					nz++
				}
			}
		}
		if nz == 0 {
			c.Coeffs[rng.Intn(n)] = 1
		}
		c.RHS = math.Round(rng.NormFloat64()*15) / 4
		if c.Sense == lp.LE && c.RHS < 0 && rng.Intn(2) == 0 {
			c.RHS = -c.RHS
		}
		p.Constraints = append(p.Constraints, c)
	}
	return p
}

// TestDifferentialMIP compares the bounds-branching warm-started solver
// against the row-branching reference oracle across random MIPs: statuses
// must agree exactly and proven objectives within 1e-6.
func TestDifferentialMIP(t *testing.T) {
	iters := 1500
	if testing.Short() {
		iters = 200
	}
	for s := 0; s < iters; s++ {
		rng := rand.New(rand.NewSource(int64(3_000_000 + s)))
		p := randomMIP(rng)
		ref, errRef := solveReference(p, Options{})
		got, errGot := Solve(p, Options{})
		if (errRef != nil) != (errGot != nil) {
			t.Fatalf("seed %d: error mismatch: reference %v, revised %v", s, errRef, errGot)
		}
		if errRef != nil {
			continue
		}
		if ref.Status != got.Status {
			t.Fatalf("seed %d: status mismatch: reference %v, revised %v\nproblem: %+v",
				s, ref.Status, got.Status, p)
		}
		if ref.Status != lp.Optimal || !ref.Proven || !got.Proven {
			continue
		}
		if math.Abs(ref.Objective-got.Objective) > 1e-6*(1+math.Abs(ref.Objective)) {
			t.Fatalf("seed %d: objective mismatch: reference %.9g (%d nodes), revised %.9g (%d nodes)\nref x=%v\ngot x=%v\nproblem: %+v",
				s, ref.Objective, ref.Nodes, got.Objective, got.Nodes, ref.X, got.X, p)
		}
		// The revised incumbent must be integer feasible and within bounds.
		for j, isInt := range p.Integer {
			if isInt && math.Abs(got.X[j]-math.Round(got.X[j])) > intTol {
				t.Fatalf("seed %d: x[%d]=%v not integral", s, j, got.X[j])
			}
			if got.X[j] < p.LowerOf(j)-1e-6 || got.X[j] > p.UpperOf(j)+1e-6 {
				t.Fatalf("seed %d: x[%d]=%v outside [%g,%g]", s, j, got.X[j], p.LowerOf(j), p.UpperOf(j))
			}
		}
		for i, c := range p.Constraints {
			lhs := 0.0
			for j, v := range c.Coeffs {
				lhs += v * got.X[j]
			}
			bad := false
			switch c.Sense {
			case lp.LE:
				bad = lhs > c.RHS+1e-6
			case lp.GE:
				bad = lhs < c.RHS-1e-6
			default:
				bad = math.Abs(lhs-c.RHS) > 1e-6
			}
			if bad {
				t.Fatalf("seed %d: constraint %d violated by incumbent: lhs=%v %v %v", s, i, lhs, c.Sense, c.RHS)
			}
		}
	}
}

// TestWarmStateReuse pins the cross-solve warm-start contract: an identical
// re-solve through a shared WarmState hits the carried basis and needs zero
// pivots; RHS/objective changes still hit; structural changes miss cleanly.
func TestWarmStateReuse(t *testing.T) {
	p := Problem{
		Problem: lp.Problem{
			NumVars:   3,
			Objective: []float64{5, 4, 3},
			Maximize:  true,
			Constraints: []lp.Constraint{
				{Coeffs: []float64{2, 3, 1}, Sense: lp.LE, RHS: 5},
				{Coeffs: []float64{4, 1, 2}, Sense: lp.LE, RHS: 11},
				{Coeffs: []float64{3, 4, 2}, Sense: lp.LE, RHS: 8},
			},
		},
		Integer: []bool{true, false, false},
	}
	warm := &WarmState{}
	first, err := Solve(p, Options{Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != lp.Optimal {
		t.Fatalf("first solve: %v", first.Status)
	}
	if first.WarmHit {
		t.Error("first solve cannot be a warm hit")
	}

	second, err := Solve(p, Options{Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	if !second.WarmHit {
		t.Error("identical re-solve must hit the warm state")
	}
	if second.Pivots != 0 {
		t.Errorf("identical re-solve took %d pivots, want 0", second.Pivots)
	}
	if math.Abs(second.Objective-first.Objective) > 1e-9 {
		t.Errorf("warm objective %v != cold %v", second.Objective, first.Objective)
	}

	// RHS change: still a hit (basis kept), result matches a cold solve.
	changed := p
	changed.Constraints = append([]lp.Constraint(nil), p.Constraints...)
	changed.Constraints[0] = lp.Constraint{Coeffs: []float64{2, 3, 1}, Sense: lp.LE, RHS: 4}
	warmRHS, err := Solve(changed, Options{Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	if !warmRHS.WarmHit {
		t.Error("RHS-only change must still hit the warm state")
	}
	cold, err := Solve(changed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warmRHS.Objective-cold.Objective) > 1e-9 {
		t.Errorf("warm-after-RHS-change objective %v != cold %v", warmRHS.Objective, cold.Objective)
	}

	// Coefficient change: structural miss, state recompiled, still correct.
	struc := p
	struc.Constraints = append([]lp.Constraint(nil), p.Constraints...)
	struc.Constraints[1] = lp.Constraint{Coeffs: []float64{4, 2, 2}, Sense: lp.LE, RHS: 11}
	miss, err := Solve(struc, Options{Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	if miss.WarmHit {
		t.Error("coefficient change must miss the warm state")
	}
	coldStruc, err := Solve(struc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(miss.Objective-coldStruc.Objective) > 1e-9 {
		t.Errorf("post-miss objective %v != cold %v", miss.Objective, coldStruc.Objective)
	}
	// And the recompiled state services the next identical call.
	again, err := Solve(struc, Options{Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	if !again.WarmHit || again.Pivots != 0 {
		t.Errorf("re-solve after miss: hit=%v pivots=%d, want hit with 0 pivots", again.WarmHit, again.Pivots)
	}
}
