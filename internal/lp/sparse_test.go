package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestSparseForcedRefactorization shrinks the eta-chain budget to near zero
// so almost every pivot forces a full Markowitz refactorization, then
// re-runs the bounded differential pool. Any divergence between the
// constantly-refactorized sparse path and the reference means refactor and
// eta-update disagree about the basis they represent.
func TestSparseForcedRefactorization(t *testing.T) {
	oldCap := etaChainCap
	etaChainCap = 1
	defer func() { etaChainCap = oldCap }()

	iters := 800
	if testing.Short() {
		iters = 100
	}
	for s := 0; s < iters; s++ {
		rng := rand.New(rand.NewSource(int64(5_000_000 + s)))
		checkAgainstReference(t, randomProblem(rng, true), int64(s))
	}

	// And the budget really is the trigger: a multi-pivot solve under cap 1
	// must refactorize, under the default cap it never needs to.
	p := degenerateProblem(rand.New(rand.NewSource(42)), 12)
	in, err := NewInstance(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.SolveCurrent(); err != nil {
		t.Fatal(err)
	}
	if in.Pivots() > 1 && in.Refactors() == 0 {
		t.Errorf("cap-1 solve took %d pivots with 0 refactorizations", in.Pivots())
	}
	if got := in.EtaChainLen(); got > 1 {
		t.Errorf("eta chain %d exceeds cap 1", got)
	}
}

// TestSparseDegenerate stresses long degenerate pivot runs (many tied basic
// variables at identical bounds), where stale eta chains are most likely to
// pick tiny pivots and the update-refusal path has to engage.
func TestSparseDegenerate(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	for s := 0; s < iters; s++ {
		rng := rand.New(rand.NewSource(int64(6_000_000 + s)))
		p := degenerateProblem(rng, 4+rng.Intn(10))
		checkAgainstReference(t, p, int64(s))
	}
}

// degenerateProblem builds a transportation-like LP whose rows share RHS
// values and coefficients drawn from a tiny set, so many bases are tied and
// most ratio tests produce zero-length steps.
func degenerateProblem(rng *rand.Rand, n int) Problem {
	p := Problem{
		NumVars:   n,
		Objective: make([]float64, n),
		Maximize:  rng.Intn(2) == 0,
		Upper:     make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.Objective[j] = float64(rng.Intn(3)) // heavy objective ties
		p.Upper[j] = float64(1 + rng.Intn(3))
	}
	m := 2 + rng.Intn(n)
	rhs := float64(1 + rng.Intn(3)) // one shared RHS: mass degeneracy
	for i := 0; i < m; i++ {
		c := Constraint{Sense: Sense(rng.Intn(3)), RHS: rhs}
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				c.Idx = append(c.Idx, int32(j))
				c.Val = append(c.Val, float64(1+rng.Intn(2))) // coefficients in {1,2}
			}
		}
		if len(c.Idx) == 0 {
			c.Idx, c.Val = []int32{int32(rng.Intn(n))}, []float64{1}
		}
		if c.Sense == GE {
			c.RHS = 0 // GE rows trivially satisfiable but still degenerate
		}
		p.Constraints = append(p.Constraints, c)
	}
	return p
}

// TestSparseIllConditioned runs the differential triangle over problems
// with coefficient magnitudes spread across six orders, where the
// threshold test in the Markowitz pivot search and the eta pivot tolerance
// carry the numerical load.
func TestSparseIllConditioned(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	for s := 0; s < iters; s++ {
		rng := rand.New(rand.NewSource(int64(7_000_000 + s)))
		n := 2 + rng.Intn(6)
		m := 2 + rng.Intn(6)
		p := Problem{
			NumVars:   n,
			Objective: make([]float64, n),
			Upper:     make([]float64, n),
		}
		for j := 0; j < n; j++ {
			p.Objective[j] = rng.NormFloat64()
			p.Upper[j] = 1 + rng.Float64()*9
		}
		for i := 0; i < m; i++ {
			c := Constraint{Sense: LE, RHS: 1 + rng.Float64()*10}
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					scale := math.Pow(10, float64(rng.Intn(7)-3)) // 1e-3 .. 1e3
					c.Idx = append(c.Idx, int32(j))
					c.Val = append(c.Val, (1+rng.Float64())*scale)
				}
			}
			if len(c.Idx) == 0 {
				c.Idx, c.Val = []int32{int32(rng.Intn(n))}, []float64{1}
			}
			p.Constraints = append(p.Constraints, c)
		}
		checkAgainstReference(t, p, int64(s))
	}
}

// TestSparseWarmChain exercises a long warm-started solve sequence on one
// instance — the branch-and-bound usage pattern — so the eta chain
// actually grows across solves and periodic refactorization happens under
// the default budget. Every step resets the bounds of a placement-shaped
// LP, tightens a few variables the way a branch does, and re-solves; each
// re-solve is checked against the reference solver on the same bounded
// problem.
func TestSparseWarmChain(t *testing.T) {
	rng := rand.New(rand.NewSource(8_000_001))
	p := placementLP(rng, 3, 8, true)
	in, err := NewInstance(p)
	if err != nil {
		t.Fatal(err)
	}
	q := p
	optimal := 0
	for step := 0; step < 60; step++ {
		in.ResetBounds()
		q.Lower = make([]float64, p.NumVars)
		q.Upper = append([]float64(nil), p.Upper...)
		for k := 0; k <= step%3; k++ {
			j := rng.Intn(p.NumVars)
			lo, hi := in.Bounds(j)
			if v := float64(rng.Intn(3)); rng.Intn(2) == 0 {
				hi = math.Min(hi, v)
			} else {
				lo = math.Max(lo, v)
			}
			in.SetBound(j, lo, hi)
			q.Lower[j], q.Upper[j] = lo, hi
		}
		st, err := in.SolveCurrent()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ref, errRef := SolveReference(q)
		if errRef != nil {
			t.Fatalf("step %d: reference: %v", step, errRef)
		}
		if st != ref.Status {
			t.Fatalf("step %d: status %v, reference %v", step, st, ref.Status)
		}
		if st == Optimal {
			optimal++
			if got := in.ObjectiveValue(); math.Abs(got-ref.Objective) > 1e-6*(1+math.Abs(ref.Objective)) {
				t.Fatalf("step %d: objective %.9g, reference %.9g", step, got, ref.Objective)
			}
		}
	}
	if optimal < 30 {
		t.Errorf("%d of 60 re-solves optimal, want at least 30", optimal)
	}
	if in.EtaChainLen() > etaChainCap {
		t.Errorf("eta chain %d exceeds cap %d", in.EtaChainLen(), etaChainCap)
	}
}

// TestEtaFileStaysInSlab drives a factorization's eta file to its nonzero
// budget with dense columns and requires every accepted eta to land in the
// region reset carved for it: the file must never reallocate mid-solve.
func TestEtaFileStaysInSlab(t *testing.T) {
	const m = 100
	f := new(sparseLU)
	f.reset(m)
	idx0, val0 := &f.etaIdx[:1][0], &f.etaVal[:1][0]
	w := make([]float64, m)
	pat := make([]int32, m)
	for i := range w {
		w[i], pat[i] = 1+float64(i), int32(i)
	}
	etas := 0
	for ; f.update(etas%m, w, pat); etas++ {
		if &f.etaIdx[0] != idx0 || &f.etaVal[0] != val0 {
			t.Fatalf("eta %d: the eta file left its slab at %d entries", etas, len(f.etaIdx))
		}
	}
	// The nonzero budget, not the chain length, must be what refused.
	if etas >= maxEtaChain || len(f.etaIdx) <= 16*m+1024 {
		t.Fatalf("refused after %d etas holding %d entries, want the %d-entry budget exceeded",
			etas, len(f.etaIdx), 16*m+1024)
	}
}
