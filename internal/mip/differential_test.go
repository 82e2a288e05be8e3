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

// TestDifferentialMIP compares the bounds-branching warm-started solver,
// serial and parallel, against the row-branching reference oracle across
// random MIPs: statuses must agree exactly and proven objectives within
// 1e-6.
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
		par, errPar := Solve(p, Options{Workers: 2})
		if (errRef != nil) != (errGot != nil) || (errRef != nil) != (errPar != nil) {
			t.Fatalf("seed %d: error mismatch: reference %v, serial %v, parallel %v", s, errRef, errGot, errPar)
		}
		if errRef != nil {
			continue
		}
		if ref.Status != got.Status || ref.Status != par.Status {
			t.Fatalf("seed %d: status mismatch: reference %v, serial %v, parallel %v\nproblem: %+v",
				s, ref.Status, got.Status, par.Status, p)
		}
		if ref.Status != lp.Optimal || !ref.Proven || !got.Proven {
			continue
		}
		if math.Abs(ref.Objective-got.Objective) > 1e-6*(1+math.Abs(ref.Objective)) {
			t.Fatalf("seed %d: objective mismatch: reference %.9g (%d nodes), revised %.9g (%d nodes)\nref x=%v\ngot x=%v\nproblem: %+v",
				s, ref.Objective, ref.Nodes, got.Objective, got.Nodes, ref.X, got.X, p)
		}
		if par.Proven && math.Abs(ref.Objective-par.Objective) > 1e-6*(1+math.Abs(ref.Objective)) {
			t.Fatalf("seed %d: objective mismatch: reference %.9g, parallel %.9g\nproblem: %+v", s, ref.Objective, par.Objective, p)
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

// TestGapPruneOnPop verifies Options.Gap is honored in the best-first bound
// prune: once an incumbent is within the gap of the smallest outstanding
// bound, the search stops (Proven) without exploring those nodes, and a
// loose gap explores no more nodes than an exact solve.
func TestGapPruneOnPop(t *testing.T) {
	// A knapsack with many near-tied alternatives forces real branching.
	rng := rand.New(rand.NewSource(7))
	n := 14
	p := Problem{
		Problem: lp.Problem{
			NumVars:   n,
			Objective: make([]float64, n),
			Maximize:  true,
			Upper:     make([]float64, n),
		},
		Integer: make([]bool, n),
	}
	weights := make([]float64, n)
	for j := 0; j < n; j++ {
		p.Objective[j] = 10 + rng.Float64()
		weights[j] = 3 + 2*rng.Float64()
		p.Upper[j] = 1
		p.Integer[j] = true
	}
	p.Constraints = []lp.Constraint{{Coeffs: weights, Sense: lp.LE, RHS: 20}}

	exact, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Status != lp.Optimal || !exact.Proven {
		t.Fatalf("exact solve: %v proven=%v", exact.Status, exact.Proven)
	}
	loose, err := Solve(p, Options{Gap: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Status != lp.Optimal || !loose.Proven {
		t.Fatalf("gapped solve: %v proven=%v", loose.Status, loose.Proven)
	}
	if loose.Nodes >= exact.Nodes {
		t.Errorf("gap=0.25 explored %d nodes, exact explored %d — gap prune not engaging", loose.Nodes, exact.Nodes)
	}
	// The gapped incumbent is within the promised distance of the optimum
	// (maximization: incumbent may be below the true optimum by ≤ gap·scale).
	if exact.Objective-loose.Objective > 0.25*(1+math.Abs(exact.Objective)) {
		t.Errorf("gapped objective %v too far from optimum %v", loose.Objective, exact.Objective)
	}
}
