package lp

import (
	"math"
	"math/rand"
	"testing"
)

// benchProblem builds a deterministic placement-shaped LP: box-bounded
// allocation columns, unbounded-above overflow columns, and a mix of
// equality (demand) and inequality (capacity, linking) rows — the same
// structural mix the scheduler's MIP relaxations exercise.
func benchProblem(nVars, nRows int, seed int64) Problem {
	rng := rand.New(rand.NewSource(seed))
	p := Problem{
		NumVars:   nVars,
		Objective: make([]float64, nVars),
		Lower:     make([]float64, nVars),
		Upper:     make([]float64, nVars),
	}
	for j := 0; j < nVars; j++ {
		p.Objective[j] = 1 + rng.Float64()*4
		if j%3 == 0 {
			p.Upper[j] = 50 + rng.Float64()*100
		} else {
			p.Upper[j] = math.Inf(1)
		}
	}
	coeffs := make([]float64, nVars)
	for i := 0; i < nRows; i++ {
		clear(coeffs)
		var c Constraint
		switch i % 3 {
		case 0: // demand: a sparse equality kept feasible by a slack-ish column
			for k := 0; k < 4; k++ {
				coeffs[rng.Intn(nVars)] = 1
			}
			c.Sense = EQ
			c.RHS = 20 + rng.Float64()*30
		case 1: // capacity: sum of a few columns under a cap
			for k := 0; k < 6; k++ {
				coeffs[rng.Intn(nVars)] = 1 + rng.Float64()
			}
			c.Sense = LE
			c.RHS = 100 + rng.Float64()*200
		default: // coverage: at least some mass across a few columns
			for k := 0; k < 5; k++ {
				coeffs[rng.Intn(nVars)] = 1
			}
			c.Sense = GE
			c.RHS = rng.Float64() * 10
		}
		c.Idx, c.Val = sparseRow(coeffs)
		p.Constraints = append(p.Constraints, c)
	}
	return p
}

// sparseRow returns the nonzeros of a dense coefficient row as a
// Constraint's index/value pairs. Generators that draw coefficients at
// random positions (possibly the same one twice) fill a dense row first and
// convert it here.
func sparseRow(dense []float64) ([]int32, []float64) {
	var idx []int32
	var val []float64
	for j, v := range dense {
		if v != 0 {
			idx = append(idx, int32(j))
			val = append(val, v)
		}
	}
	return idx, val
}

// BenchmarkSimplexCold measures a from-scratch instance build and solve per
// iteration: the no-reuse path a one-shot Solve call takes.
func BenchmarkSimplexCold(b *testing.B) {
	p := benchProblem(60, 42, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := NewInstance(p)
		if err != nil {
			b.Fatal(err)
		}
		if st, err := in.SolveCurrent(); err != nil || st != Optimal {
			b.Fatalf("status %v err %v", st, err)
		}
	}
}

// BenchmarkSimplexWarm measures a bound-tighten/relax re-solve on a shared
// instance — the branch-and-bound inner loop. The arena is reused, so the
// steady state does no large allocations.
func BenchmarkSimplexWarm(b *testing.B) {
	p := benchProblem(60, 42, 11)
	in, err := NewInstance(p)
	if err != nil {
		b.Fatal(err)
	}
	if st, err := in.SolveCurrent(); err != nil || st != Optimal {
		b.Fatalf("status %v err %v", st, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.ResetBounds()
		// Alternate between two nearby bound sets so every re-solve does
		// real pivoting work instead of a no-op status check.
		j := i % 2
		in.SetBound(j, 0, 5)
		if st, err := in.SolveCurrent(); err != nil || st != Optimal {
			b.Fatalf("status %v err %v", st, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(in.Pivots())/float64(b.N), "pivots/op")
}

// BenchmarkSimplexReference runs the legacy dense Bland tableau on the same
// problem for a like-for-like comparison.
func BenchmarkSimplexReference(b *testing.B) {
	p := benchProblem(60, 42, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := SolveReference(p)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}
