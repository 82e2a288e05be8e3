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
		c := lp.Constraint{Sense: lp.Sense(rng.Intn(3))}
		for j := 0; j < n; j++ {
			if rng.Intn(3) > 0 {
				if v := math.Round(rng.NormFloat64()*8) / 4; v != 0 {
					c.Idx = append(c.Idx, int32(j))
					c.Val = append(c.Val, v)
				}
			}
		}
		if len(c.Idx) == 0 {
			c.Idx, c.Val = []int32{int32(rng.Intn(n))}, []float64{1}
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
			for k, v := range c.Val {
				lhs += v * got.X[c.Idx[k]]
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
