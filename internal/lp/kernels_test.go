package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The references below are the kernels as they were before BTRAN and the
// column FTRAN followed their nonzero patterns, updateD assembled the pivot
// row row by row and the ratio test recorded its blocking rows from
// FTRAN's pattern. They stay here, the way cluster keeps refSite, so
// TestSparseKernelsMatchReference can hold the fast kernels to them.

// refBtran is the full BTRAN: every eta in reverse order, then the whole Uᵀ
// forward pass and Lᵀ backward pass.
func refBtran(f *sparseLU, y []float64) {
	for e := len(f.etaRow) - 1; e >= 0; e-- {
		r := f.etaRow[e]
		s := y[r]
		for q := f.etaPtr[e]; q < f.etaPtr[e+1]; q++ {
			s -= f.etaVal[q] * y[f.etaIdx[q]]
		}
		y[r] = s / f.etaPiv[e]
	}
	if f.trivial {
		return
	}
	m := f.m
	work := make([]float64, m)
	for k := 0; k < m; k++ {
		t := y[f.pivCol[k]] / f.diag[k]
		work[f.pivRow[k]] = t
		if t != 0 {
			for q := f.uPtr[k]; q < f.uPtr[k+1]; q++ {
				y[f.uIdx[q]] -= f.uVal[q] * t
			}
		}
	}
	for k := m - 1; k >= 0; k-- {
		s := work[f.pivRow[k]]
		for q := f.lPtr[k]; q < f.lPtr[k+1]; q++ {
			s -= f.lVal[q] * work[f.lIdx[q]]
		}
		work[f.pivRow[k]] = s
	}
	copy(y, work)
}

// refFtranCol is the full column FTRAN: the column scattered into w, then
// every L step, the whole U back-substitution and every eta.
func refFtranCol(in *Instance, q int, w []float64) {
	clear(w)
	if q >= in.nStruct {
		w[q-in.nStruct] = 1
	} else {
		for k := in.colPtr[q]; k < in.colPtr[q+1]; k++ {
			w[in.colRow[k]] = in.colVal[k]
		}
	}
	in.fac.ftran(w)
}

// refUpdateD is the colDot-based reduced-cost update: one dot product of
// row r of B⁻¹ with every nonbasic column. It updates d in place.
func refUpdateD(in *Instance, d []float64, leave, enter, out int) {
	ratio := d[enter] / in.w[leave]
	if ratio == 0 {
		d[enter] = 0
		d[out] = 0
		return
	}
	rowR := make([]float64, in.m)
	rowR[leave] = 1
	refBtran(in.fac, rowR)
	for j := 0; j < in.n; j++ {
		if in.vstat[j] == vsBasic || j == enter {
			continue
		}
		if alpha := in.colDot(rowR, j); alpha != 0 {
			d[j] -= ratio * alpha
		}
	}
	d[enter] = 0
	d[out] = -ratio
}

// refTarget is the target switch the two-pass ratio test ran over every row
// in both passes: the bound basic row i blocks at, whether that is its upper
// bound, and false when the row cannot block.
func refTarget(in *Instance, i, dir int, phase1 bool) (target float64, up, ok bool) {
	wi := in.w[i]
	if wi < pivotTol && wi > -pivotTol {
		return 0, false, false
	}
	delta := -float64(dir) * wi
	j := in.basis[i]
	if delta > 0 {
		switch {
		case phase1 && in.xB[i] < in.lo[j]-feasTol:
			target = in.lo[j]
		case phase1 && in.xB[i] > in.hi[j]+feasTol:
			return 0, false, false
		default:
			target, up = in.hi[j], true
		}
		return target, up, !math.IsInf(target, 1)
	}
	switch {
	case phase1 && in.xB[i] > in.hi[j]+feasTol:
		target, up = in.hi[j], true
	case phase1 && in.xB[i] < in.lo[j]-feasTol:
		return 0, false, false
	default:
		target = in.lo[j]
	}
	return target, up, !math.IsInf(target, -1)
}

// refRatioTest is the two-pass ratio test: a pass over all m rows for the
// minimum ratio, then a second pass over all m rows repeating the target
// switch to pick the leaving row.
func refRatioTest(in *Instance, enter, dir int, phase1, bland bool) (t float64, leave int, toUpper, flip bool) {
	ratio := func(i int, target float64) float64 {
		ti := (target - in.xB[i]) / (-float64(dir) * in.w[i])
		if ti < 0 {
			ti = 0
		}
		return ti
	}
	minT := math.Inf(1)
	if r := in.hi[enter] - in.lo[enter]; in.vstat[enter] != vsFree && !math.IsInf(r, 1) {
		minT = r
		flip = true
	}
	leave = -1
	for i := 0; i < in.m; i++ {
		if target, _, ok := refTarget(in, i, dir, phase1); ok {
			if ti := ratio(i, target); ti < minT {
				minT = ti
				flip = false
			}
		}
	}
	if math.IsInf(minT, 1) {
		return 0, -1, false, false
	}
	if !flip {
		tie := minT + tieTol*(1+minT)
		var bestW float64
		bestIdx := int32(math.MaxInt32)
		for i := 0; i < in.m; i++ {
			target, up, ok := refTarget(in, i, dir, phase1)
			if !ok || ratio(i, target) > tie {
				continue
			}
			if bland {
				if j := in.basis[i]; j < bestIdx {
					bestIdx, leave, toUpper = j, i, up
				}
			} else if aw := math.Abs(in.w[i]); aw > bestW {
				bestW, leave, toUpper = aw, i, up
			}
		}
		if leave < 0 {
			if r := in.hi[enter] - in.lo[enter]; in.vstat[enter] != vsFree && !math.IsInf(r, 1) {
				return r, -1, false, true
			}
			return 0, -1, false, false
		}
	}
	return minT, leave, toUpper, flip
}

// kernelCheck drives one instance through SolveCurrent's phases pivot by
// pivot and holds every kernel call to its reference first: BTRAN (the
// phase-1 price vector, the phase-2 c_B vector, and the row of B⁻¹ of every
// leaving row), the column FTRAN and its pattern, the ratio test, and the
// phase-2 reduced-cost update.
type kernelCheck struct {
	t    *testing.T
	name string
	in   *Instance
	// pivots counts the basis changes phase 1 and phase 2 made.
	pivots [2]int
}

// checkBtran runs the production and reference BTRAN on copies of y and
// requires bit-equal nonzeros and the same zero pattern. It returns the
// production result.
func (c *kernelCheck) checkBtran(what string, y []float64) []float64 {
	got := append([]float64(nil), y...)
	want := append([]float64(nil), y...)
	c.in.fac.btran(got)
	refBtran(c.in.fac, want)
	c.sameNonzeros("BTRAN of "+what, got, want)
	return got
}

// checkRowOfInverse checks the row of B⁻¹ updateD reads, BTRAN on e_r.
func (c *kernelCheck) checkRowOfInverse(r int) {
	got := make([]float64, c.in.m)
	c.in.fac.rowOfInverse(r, got)
	want := make([]float64, c.in.m)
	want[r] = 1
	refBtran(c.in.fac, want)
	c.sameNonzeros(fmt.Sprintf("row %d of the inverse", r), got, want)
}

// sameNonzeros requires got and want to hold the same nonzero set with
// bit-equal values; zeros may differ in sign.
func (c *kernelCheck) sameNonzeros(what string, got, want []float64) {
	for i := range got {
		if (got[i] == 0) != (want[i] == 0) || (got[i] != 0 && math.Float64bits(got[i]) != math.Float64bits(want[i])) {
			c.t.Fatalf("%s: %s differs at %d: %v, reference %v (eta chain %d)",
				c.name, what, i, got[i], want[i], c.in.fac.etaLen())
		}
	}
}

// ftran runs the production column FTRAN for entering column q and holds
// it to refFtranCol: the same nonzeros, bit for bit, and a recorded
// pattern that ascends strictly and covers every nonzero.
func (c *kernelCheck) ftran(q int) {
	in := c.in
	in.ftran(q)
	want := make([]float64, in.m)
	refFtranCol(in, q, want)
	what := fmt.Sprintf("FTRAN of column %d", q)
	c.sameNonzeros(what, in.w, want)
	covered := make([]bool, in.m)
	for k, i := range in.wPat {
		if k > 0 && i <= in.wPat[k-1] {
			c.t.Fatalf("%s: %s pattern %v does not ascend", c.name, what, in.wPat)
		}
		covered[i] = true
	}
	for i, wi := range in.w {
		if wi != 0 && !covered[i] {
			c.t.Fatalf("%s: %s pattern misses nonzero %v at %d", c.name, what, wi, i)
		}
	}
}

// ratio runs the production ratio test and requires the reference's step
// bits, leaving row, bound and flip.
func (c *kernelCheck) ratio(enter, dir int, phase1, bland bool) (float64, int, bool, bool) {
	t, leave, up, flip := c.in.ratioTest(enter, dir, phase1, bland)
	rt, rleave, rup, rflip := refRatioTest(c.in, enter, dir, phase1, bland)
	if math.Float64bits(t) != math.Float64bits(rt) || leave != rleave || up != rup || flip != rflip {
		c.t.Fatalf("%s: ratio test (t=%v leave=%d up=%v flip=%v), reference (t=%v leave=%d up=%v flip=%v)",
			c.name, t, leave, up, flip, rt, rleave, rup, rflip)
	}
	return t, leave, up, flip
}

// step applies a step, holding phase 2's reduced-cost update to
// refUpdateD computed from the same pre-pivot state.
func (c *kernelCheck) step(phase2 bool, enter, dir int, t float64, leave int, up, flip bool) {
	in := c.in
	var want []float64
	if !flip {
		c.checkRowOfInverse(leave)
		if phase2 {
			c.pivots[1]++
			want = append([]float64(nil), in.d...)
			refUpdateD(in, want, leave, enter, int(in.basis[leave]))
		} else {
			c.pivots[0]++
		}
	}
	in.applyStep(enter, dir, t, leave, up, flip, phase2)
	for j := range want {
		if math.Float64bits(in.d[j]) != math.Float64bits(want[j]) {
			c.t.Fatalf("%s: d[%d] = %v after pivot, reference %v", c.name, j, in.d[j], want[j])
		}
	}
}

// phase1 mirrors Instance.phase1.
func (c *kernelCheck) phase1() (Status, error) {
	in := c.in
	bland, degen := false, 0
	for iter := 0; iter < 10000*(in.m+in.n+1); iter++ {
		ninf := 0
		y := make([]float64, in.m)
		for i := 0; i < in.m; i++ {
			j := in.basis[i]
			switch {
			case in.xB[i] < in.lo[j]-feasTol:
				y[i] = -1
				ninf++
			case in.xB[i] > in.hi[j]+feasTol:
				y[i] = 1
				ninf++
			}
		}
		if ninf == 0 {
			return Optimal, nil
		}
		copy(in.y, c.checkBtran("the phase-1 price", y))
		enter, dir := in.priceFromY(bland)
		if enter < 0 {
			return Infeasible, nil
		}
		c.ftran(enter)
		t, leave, up, flip := c.ratio(enter, dir, true, bland)
		if leave < 0 && !flip {
			return Optimal, fmt.Errorf("no blocking bound")
		}
		c.step(false, enter, dir, t, leave, up, flip)
		if in.facBad {
			return Optimal, fmt.Errorf("refactorization failed")
		}
		if t <= degenTol {
			if degen++; degen > blandTrigger {
				bland = true
			}
		} else {
			degen, bland = 0, false
		}
	}
	return Optimal, fmt.Errorf("iteration limit")
}

// refreshD mirrors Instance.refreshD, checking its BTRAN of c_B.
func (c *kernelCheck) refreshD() {
	in := c.in
	cb := make([]float64, in.m)
	for i := range cb {
		cb[i] = in.cmin[in.basis[i]]
	}
	c.checkBtran("c_B", cb)
	in.refreshD()
}

// phase2 mirrors Instance.phase2.
func (c *kernelCheck) phase2() (Status, error) {
	in := c.in
	c.refreshD()
	bland, degen := false, 0
	for iter := 0; iter < 10000*(in.m+in.n+1); iter++ {
		enter, dir := in.pickFromD(bland)
		if enter < 0 {
			if !in.dExact {
				c.refreshD()
				if e2, _ := in.pickFromD(bland); e2 >= 0 {
					continue
				}
			}
			return Optimal, nil
		}
		c.ftran(enter)
		t, leave, up, flip := c.ratio(enter, dir, false, bland)
		if leave < 0 && !flip {
			return Unbounded, nil
		}
		c.step(true, enter, dir, t, leave, up, flip)
		if in.facBad {
			return Optimal, fmt.Errorf("refactorization failed")
		}
		if !flip {
			in.dExact = false
		}
		if t <= degenTol {
			if degen++; degen > blandTrigger {
				bland = true
			}
		} else {
			degen, bland = 0, false
		}
	}
	return Optimal, fmt.Errorf("iteration limit")
}

// solve mirrors Instance.SolveCurrent, retries included.
func (c *kernelCheck) solve() (Status, error) {
	in := c.in
	for j := 0; j < in.n; j++ {
		if in.lo[j] > in.hi[j]+feasTol {
			return Infeasible, nil
		}
	}
	if !in.ready {
		in.crash()
	}
	in.repairStatuses()
	var st Status
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		in.facBad = false
		in.computeXB()
		st, err = c.phase1()
		if err == nil && st == Optimal {
			st, err = c.phase2()
		}
		if err == nil && in.residualOK() {
			return st, nil
		}
		if !in.refactorize() {
			in.crash()
		}
	}
	return st, err
}

// checkedSolve solves in under kernelCheck and twin in production, and
// requires them to agree exactly: status, pivot and refactorization
// counts, and the bits of every value. twin must be compiled from in's
// problem and have been put through the same bound changes and solves. It
// returns the pivots per phase.
func checkedSolve(t *testing.T, name string, in, twin *Instance) [2]int {
	t.Helper()
	c := &kernelCheck{t: t, name: name, in: in}
	st, err := c.solve()
	wantSt, wantErr := twin.SolveCurrent()
	if st != wantSt || (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: checked solve %v/%v, production %v/%v", name, st, err, wantSt, wantErr)
	}
	if in.Pivots() != twin.Pivots() || in.Refactors() != twin.Refactors() {
		t.Fatalf("%s: checked solve took %d pivots and %d refactorizations, production %d and %d",
			name, in.Pivots(), in.Refactors(), twin.Pivots(), twin.Refactors())
	}
	if st == Optimal {
		got, want := in.Values(nil), twin.Values(nil)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: x[%d] = %v, production %v", name, j, got[j], want[j])
			}
		}
	}
	return c.pivots
}

// placementLP builds an LP shaped like the scheduler's placement
// relaxation over k sites and H steps: demand equalities with a shortfall
// column, soft stable-level rows, a <= D·y linking, migration rows, a site
// count row and, with peak, the peak and horizon-smoothing rows whose
// k·H+1 nonzeros make the densest rows of the real model.
func placementLP(rng *rand.Rand, k, H int, peak bool) Problem {
	nA := k * H
	aVar := func(s, tau int) int32 { return int32(s*H + tau) }
	mVar := func(s, tau int) int32 { return int32(nA + s*H + tau) }
	oVar := func(s, tau int) int32 { return int32(2*nA + s*H + tau) }
	uVar := func(tau int) int32 { return int32(3*nA + tau) }
	yVar := func(s int) int32 { return int32(3*nA + H + s) }
	pVar := int32(3*nA + H + k)
	eVar := func(tau int) int32 { return pVar + 1 + int32(tau) }
	n := int(pVar) + 1
	if peak {
		n += H
	}
	mem := 2 + 6*rng.Float64()
	demand := 200 + 800*rng.Float64()
	p := Problem{NumVars: n, Objective: make([]float64, n), Upper: make([]float64, n)}
	for j := range p.Upper {
		p.Upper[j] = math.Inf(1)
	}
	row := func(idx []int32, val []float64, sense Sense, rhs float64) {
		p.Constraints = append(p.Constraints, Constraint{Idx: idx, Val: val, Sense: sense, RHS: rhs})
	}
	for s := 0; s < k; s++ {
		for tau := 0; tau < H; tau++ {
			p.Objective[mVar(s, tau)] = mem * (1 + 0.5*float64(H-1-tau)/float64(H))
			p.Objective[oVar(s, tau)] = 0.15 * mem
			if tau < 4 {
				p.Upper[aVar(s, tau)] = demand * (0.2 + rng.Float64())
			}
		}
		p.Upper[yVar(s)] = 1
	}
	for tau := 0; tau < H; tau++ {
		p.Objective[uVar(tau)] = 1000 * mem * float64(H)
		var idx []int32
		var val []float64
		for s := 0; s < k; s++ {
			idx, val = append(idx, aVar(s, tau)), append(val, 1)
		}
		row(append(idx, uVar(tau)), append(val, 1), EQ, demand)
	}
	for s := 0; s < k; s++ {
		for tau := 0; tau < H; tau++ {
			row([]int32{aVar(s, tau), oVar(s, tau)}, []float64{1, -1}, LE, demand*(0.1+0.8*rng.Float64()))
			row([]int32{aVar(s, tau), yVar(s)}, []float64{1, -demand}, LE, 0)
			if tau > 0 {
				row([]int32{aVar(s, tau-1), aVar(s, tau), mVar(s, tau)}, []float64{1, -1, 1}, GE, 0)
			}
		}
	}
	var yi []int32
	var yv []float64
	for s := 0; s < k; s++ {
		yi, yv = append(yi, yVar(s)), append(yv, 1)
	}
	row(yi, yv, LE, float64(k-1+rng.Intn(2)))
	if peak {
		p.Objective[pVar] = 8
		share := -mem / float64(H)
		for tau := 0; tau < H; tau++ {
			p.Objective[eVar(tau)] = 0.2
			var idx []int32
			var val []float64
			for s := 0; s < k; s++ {
				idx, val = append(idx, mVar(s, tau)), append(val, mem)
			}
			row(append(idx, pVar), append(val, -1), LE, -10*rng.Float64())
			idx, val = nil, nil
			for s := 0; s < k; s++ {
				for t2 := 0; t2 < H; t2++ {
					v := share
					if t2 == tau {
						v += mem
					}
					idx, val = append(idx, mVar(s, t2)), append(val, v)
				}
			}
			row(append(idx, eVar(tau)), append(val, -1), LE, 5*rng.NormFloat64())
		}
	}
	return p
}

// padRows appends LE rows with positive coefficients over two to four of
// the first cols variables until p has rows constraints. The origin
// satisfies every such row, so padding a placement LP over its a, m and o
// columns keeps it feasible.
func padRows(rng *rand.Rand, p Problem, rows, cols int) Problem {
	for len(p.Constraints) < rows {
		coeffs := make([]float64, p.NumVars)
		for k := 2 + rng.Intn(3); k > 0; k-- {
			coeffs[rng.Intn(cols)] = 0.5 + rng.Float64()
		}
		idx, val := sparseRow(coeffs)
		p.Constraints = append(p.Constraints, Constraint{Idx: idx, Val: val, Sense: LE, RHS: 100 + 400*rng.Float64()})
	}
	return p
}

// multiWordShapes are placement LPs whose row counts fall on and either
// side of 64 and 128, padded to size, and three of a few hundred rows
// (rows 0: unpadded), so the kernels' bitsets span several words.
var multiWordShapes = []struct {
	k, H int
	peak bool
	rows int
}{
	{2, 9, false, 63}, {2, 9, false, 64}, {2, 9, false, 65},
	{2, 14, true, 127}, {2, 14, true, 128}, {2, 14, true, 129},
	{3, 21, true, 0}, {3, 24, true, 0}, {3, 28, true, 0},
}

// TestSparseKernelsMatchReference holds the hypersparse BTRAN and column
// FTRAN, the row-wise pivot row and the pattern-walking ratio test to the
// kernels they replaced, after every pivot, over seeded random LPs,
// placement-shaped LPs and multi-word placement LPs, at the default
// eta-chain cap and shrunk ones. Branch-style bound tightenings re-solve
// warm so long eta chains form.
func TestSparseKernelsMatchReference(t *testing.T) {
	oldCap := etaChainCap
	defer func() { etaChainCap = oldCap }()
	const small = 60
	for _, chainCap := range []int{maxEtaChain, 7, 2} {
		etaChainCap = chainCap
		var pivots [2]int
		rng := rand.New(rand.NewSource(int64(9_000_000 + chainCap)))
		for trial := 0; trial < small+len(multiWordShapes); trial++ {
			var p Problem
			switch {
			case trial >= small:
				sh := multiWordShapes[trial-small]
				p = placementLP(rng, sh.k, sh.H, sh.peak)
				if sh.rows > 0 {
					p = padRows(rng, p, sh.rows, 3*sh.k*sh.H)
					if len(p.Constraints) != sh.rows {
						t.Fatalf("shape %+v: %d rows", sh, len(p.Constraints))
					}
				}
			case trial%2 == 0:
				p = growProblem(rng, randomProblem(rng, true), 10+rng.Intn(16))
			default:
				p = placementLP(rng, 1+rng.Intn(3), 2+rng.Intn(8), trial%4 == 1)
			}
			name := fmt.Sprintf("cap %d trial %d (m=%d)", chainCap, trial, len(p.Constraints))
			in, err := NewInstance(p)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewInstance(p)
			if err != nil {
				t.Fatal(err)
			}
			got := checkedSolve(t, name+" cold", in, twin)
			pivots[0], pivots[1] = pivots[0]+got[0], pivots[1]+got[1]
			for round := 0; round < 4; round++ {
				j := rng.Intn(p.NumVars)
				lo, _ := in.Bounds(j)
				if math.IsInf(lo, -1) {
					lo = -5
				}
				hi := lo + float64(rng.Intn(3))
				in.SetBound(j, lo, hi)
				twin.SetBound(j, lo, hi)
				got := checkedSolve(t, fmt.Sprintf("%s round %d", name, round), in, twin)
				pivots[0], pivots[1] = pivots[0]+got[0], pivots[1]+got[1]
				if round%2 == 1 {
					in.ResetBounds()
					twin.ResetBounds()
				}
			}
		}
		if pivots[0] == 0 || pivots[1] == 0 {
			t.Fatalf("cap %d: pivots per phase %v, want both checked", chainCap, pivots)
		}
	}
}
