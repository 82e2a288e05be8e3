package lp

import (
	"fmt"
	"math"
)

// This file implements the bounded revised simplex that backs Solve and the
// branch-and-bound in internal/mip. Unlike the dense two-phase tableau in
// reference.go it works on the original sparse columns plus a sparse LU
// factorization of the basis (sparselu.go), supports native per-variable
// bounds (so integer branching tightens a bound instead of appending a row),
// and keeps its factorization and scratch memory alive between solves:
// re-solving after a bound change warm-starts from the previous optimal
// basis, usually skipping phase 1 entirely.
//
// Pivoting is Dantzig (most negative reduced cost) for speed, with an
// automatic switch to Bland's rule after a run of degenerate steps, which
// restores the guaranteed-termination property of the reference solver.

// Nonbasic/basic variable statuses.
const (
	vsLower int8 = iota // nonbasic at lower bound
	vsUpper             // nonbasic at upper bound
	vsFree              // nonbasic free variable, pinned at zero
	vsBasic
)

// Solver tolerances.
const (
	feasTol  = 1e-7 // bound violation considered infeasible
	costTol  = 1e-7 // reduced-cost optimality threshold
	pivotTol = 1e-9 // minimum |w_i| for a row to block the ratio test
	degenTol = 1e-9 // step sizes below this count as degenerate
	tieTol   = 1e-7 // ratio-test tie window (relative to min ratio)
	residTol = 1e-6 // row residual that triggers refactorization
)

// blandTrigger is how many consecutive degenerate pivots are tolerated
// before switching from Dantzig to Bland's anti-cycling rule.
const blandTrigger = 64

// Instance is a compiled linear program. Compiling converts the row-form
// Problem into computational standard form (min c·x, Ax + s = b, l ≤ x ≤ u,
// one bounded slack per row) with sparse columns, in arrays the instance
// owns. All operations after a compile — bound tightening and repeated
// solves — reuse those arrays, and so does the next compile: Load
// recompiles another problem in place, growing an array only when the
// problem outgrows its capacity. A branch-and-bound tree, and a sequence
// of them on one instance, therefore performs O(1) large allocations.
//
// An Instance is not safe for concurrent use.
type Instance struct {
	m       int // constraint rows
	nStruct int // structural variables
	n       int // total variables (structural + one slack per row)

	maximize bool
	cmin     []float64 // len n, minimization sense, slack costs zero
	b        []float64 // len m
	senses   []Sense   // len m
	baseLo   []float64 // len n, bounds as compiled (slack bounds from sense)
	baseHi   []float64

	// Structural columns, CSC. Slack column nStruct+i is the implicit unit
	// vector e_i and is not stored.
	colPtr []int32
	colRow []int32
	colVal []float64
	// Row-major mirror of the same nonzeros: the residual check evaluates
	// rows from it.
	rowPtr []int32
	rowCol []int32
	rowVal []float64

	// Mutable solver state, preserved between solves for warm starting.
	lo, hi []float64
	basis  []int32   // basis[i] = variable basic in row i
	vstat  []int8    // len n
	fac    *sparseLU // basis factorization
	facBad bool      // a mid-iteration refactorization failed; abort phase
	xB     []float64 // len m, values of basic variables
	ready  bool      // basis state is valid (false before first solve)

	d      []float64 // n, reduced costs (maintained incrementally in phase 2)
	dExact bool

	// Scratch (reused every iteration), carved by Load from f64buf and
	// i32buf.
	accum      []float64 // m
	w          []float64 // m, FTRAN result B⁻¹A_q
	wPat       []int32   // ascending positions where w may be nonzero
	y          []float64 // m, BTRAN result
	rowScratch []float64 // m, row of B⁻¹ for the incremental price update
	valScratch []float64 // n, full value vector for residual/objective sweeps
	alpha      []float64 // nStruct, pivot-row accumulator, all zero between pivots
	alphaSeen  []bool    // nStruct, alpha entries touched by the current pivot
	alphaCols  []int32   // the touched structural columns, in first-touch order
	cb1        []int8    // m, phase-1 cost markers
	blockers   []blocker // the current ratio test's blocking rows, ascending
	f64buf     []float64
	i32buf     []int32

	pivots    int64
	refactors int64
}

// NewInstance compiles p into a new instance; see Load.
func NewInstance(p Problem) (*Instance, error) {
	in := new(Instance)
	if err := in.Load(p); err != nil {
		return nil, err
	}
	return in, nil
}

// Load compiles p into the instance in place, replacing whatever it held.
// Every array keeps its capacity and is reallocated only when p needs more;
// nothing else survives. The counters, the basis and its factorization
// start over, slack costs, default lower bounds and column counts start at
// zero, and every scratch array the kernels need zero between calls is
// zero, even after a solve that ended in an error. The instance then
// behaves exactly as NewInstance(p) would: the same pivots, the same bits.
//
// The problem must already be valid (see Problem.Validate); Solve
// validates before compiling, and internal/mip validates once at the root
// of its search rather than at every node.
func (in *Instance) Load(p Problem) error {
	if p.NumVars <= 0 {
		return fmt.Errorf("%w: NumVars = %d", ErrBadProblem, p.NumVars)
	}
	m := len(p.Constraints)
	ns := p.NumVars
	n := ns + m
	in.m, in.nStruct, in.n = m, ns, n
	in.maximize = p.Maximize
	in.cmin = zeroed(in.cmin, n)
	in.b = zeroed(in.b, m)
	in.senses = zeroed(in.senses, m)
	in.baseLo = zeroed(in.baseLo, n)
	in.baseHi = zeroed(in.baseHi, n)
	in.lo = zeroed(in.lo, n)
	in.hi = zeroed(in.hi, n)
	in.basis = zeroed(in.basis, m)
	in.vstat = zeroed(in.vstat, n)
	in.xB = zeroed(in.xB, m)
	in.d = zeroed(in.d, n)
	if in.fac == nil {
		in.fac = new(sparseLU)
	}
	in.fac.reset(m)
	in.ready, in.facBad, in.dExact = false, false, false
	in.pivots, in.refactors = 0, 0
	in.carveScratch()
	in.compileRows(p)
	in.loadData(p)
	return nil
}

// carveScratch cuts the per-iteration scratch arrays, all zero, from the
// instance's slabs for its dimensions.
func (in *Instance) carveScratch() {
	m, n, ns := in.m, in.n, in.nStruct
	in.f64buf = zeroed(in.f64buf, 4*m+n+ns)
	f := in.f64buf
	in.accum, f = f[:m:m], f[m:]
	in.w, f = f[:m:m], f[m:]
	in.y, f = f[:m:m], f[m:]
	in.rowScratch, f = f[:m:m], f[m:]
	in.valScratch, in.alpha = f[:n:n], f[n:]
	in.alphaSeen = zeroed(in.alphaSeen, ns)
	in.i32buf = zeroed(in.i32buf, ns+m)
	in.alphaCols, in.wPat = in.i32buf[:0:ns], in.i32buf[ns:ns]
	in.cb1 = zeroed(in.cb1, m)
	in.blockers = zeroed(in.blockers, m)[:0]
}

// compileRows fills the row-major mirror from p's sparse rows, dropping
// exact zeros, then the CSC columns from the mirror: each column's entries
// come out in ascending row order.
func (in *Instance) compileRows(p Problem) {
	m, ns := in.m, in.nStruct
	nnz := 0
	for _, c := range p.Constraints {
		for _, v := range c.Val {
			if v != 0 {
				nnz++
			}
		}
	}
	in.colPtr = zeroed(in.colPtr, ns+1)
	in.colRow = zeroed(in.colRow, nnz)
	in.colVal = zeroed(in.colVal, nnz)
	in.rowPtr = zeroed(in.rowPtr, m+1)
	in.rowCol = zeroed(in.rowCol, nnz)
	in.rowVal = zeroed(in.rowVal, nnz)
	k := 0
	for i, c := range p.Constraints {
		for t, v := range c.Val {
			if v != 0 {
				j := c.Idx[t]
				in.colPtr[j+1]++
				in.rowCol[k] = j
				in.rowVal[k] = v
				k++
			}
		}
		in.rowPtr[i+1] = int32(k)
	}
	for j := 0; j < ns; j++ {
		in.colPtr[j+1] += in.colPtr[j]
	}
	// alphaCols' storage (capacity ns, unused between pivots) holds each
	// column's next free slot.
	fill := in.alphaCols[:ns]
	copy(fill, in.colPtr[:ns])
	for i := 0; i < m; i++ {
		for k := in.rowPtr[i]; k < in.rowPtr[i+1]; k++ {
			j := in.rowCol[k]
			in.colRow[fill[j]] = int32(i)
			in.colVal[fill[j]] = in.rowVal[k]
			fill[j]++
		}
	}
}

// loadData copies p's objective, RHS, senses and bounds into the
// instance's zeroed arrays.
func (in *Instance) loadData(p Problem) {
	for j, c := range p.Objective {
		if in.maximize {
			in.cmin[j] = -c
		} else {
			in.cmin[j] = c
		}
	}
	for j := 0; j < in.nStruct; j++ {
		in.baseHi[j] = math.Inf(1)
	}
	for j, v := range p.Lower {
		in.baseLo[j] = v
	}
	for j, v := range p.Upper {
		in.baseHi[j] = v
	}
	for i, c := range p.Constraints {
		in.b[i] = c.RHS
		in.senses[i] = c.Sense
		s := in.nStruct + i
		switch c.Sense {
		case LE: // a·x + s = b, s ≥ 0
			in.baseLo[s], in.baseHi[s] = 0, math.Inf(1)
		case GE: // a·x + s = b, s ≤ 0
			in.baseLo[s], in.baseHi[s] = math.Inf(-1), 0
		default: // EQ: s fixed at 0
			in.baseLo[s], in.baseHi[s] = 0, 0
		}
	}
	in.ResetBounds()
}

// ResetBounds restores the compiled bounds, undoing any SetBound calls.
func (in *Instance) ResetBounds() {
	copy(in.lo, in.baseLo)
	copy(in.hi, in.baseHi)
}

// SetBound overrides structural variable j's bounds for subsequent solves
// (until ResetBounds). Branch-and-bound uses this instead of adding rows.
func (in *Instance) SetBound(j int, lo, hi float64) {
	in.lo[j], in.hi[j] = lo, hi
}

// Bounds returns structural variable j's current working bounds.
func (in *Instance) Bounds(j int) (lo, hi float64) { return in.lo[j], in.hi[j] }

// Pivots returns the cumulative simplex pivot count across all solves.
func (in *Instance) Pivots() int64 { return in.pivots }

// Values writes the structural solution into dst (allocating if needed) and
// returns it. Only meaningful after SolveCurrent returned Optimal.
func (in *Instance) Values(dst []float64) []float64 {
	if cap(dst) < in.nStruct {
		dst = make([]float64, in.nStruct)
	}
	dst = dst[:in.nStruct]
	for j := 0; j < in.nStruct; j++ {
		dst[j] = in.value(j)
	}
	for i, bj := range in.basis {
		if int(bj) < in.nStruct {
			dst[bj] = in.xB[i]
		}
	}
	return dst
}

// ObjectiveValue returns c·x in the problem's own sense.
func (in *Instance) ObjectiveValue() float64 {
	vals := in.fillValues()
	var v float64
	for j := 0; j < in.nStruct; j++ {
		if in.cmin[j] != 0 {
			v += in.cmin[j] * vals[j]
		}
	}
	if in.maximize {
		v = -v
	}
	return v
}

// fillValues writes every variable's current value — bound value for
// nonbasics, xB for basics — into the shared scratch and returns it. One
// O(n+m) sweep replaces a per-variable O(m) basis scan in the residual and
// objective evaluations.
func (in *Instance) fillValues() []float64 {
	vals := in.valScratch
	for j := 0; j < in.n; j++ {
		vals[j] = in.value(j)
	}
	for i, bj := range in.basis {
		vals[bj] = in.xB[i]
	}
	return vals
}

// value returns nonbasic variable j's value implied by its status.
func (in *Instance) value(j int) float64 {
	switch in.vstat[j] {
	case vsLower:
		return in.lo[j]
	case vsUpper:
		return in.hi[j]
	default:
		return 0
	}
}

// SolveCurrent optimizes under the current bounds, warm-starting from the
// basis left by the previous solve when one exists. It allocates nothing.
func (in *Instance) SolveCurrent() (Status, error) {
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
		st, err = in.phase1()
		if err == nil && st == Optimal {
			st, err = in.phase2()
		}
		// Any conclusion — optimal, infeasible, or unbounded — is trusted
		// only while the factored basis still reproduces the rows: a
		// drifted factorization manufactures phantom infeasibility just as
		// readily as a wrong optimum. On a bad residual (or an internal
		// dead end) refactorize from the basis, falling back to the
		// all-slack crash basis when it has gone singular, and re-solve.
		if err == nil && in.residualOK() {
			return st, nil
		}
		if !in.refactorize() {
			in.crash()
		}
	}
	return st, err
}

// crash installs the all-slack starting basis: every slack basic, every
// structural variable nonbasic at a finite bound (or free at zero).
func (in *Instance) crash() {
	for j := 0; j < in.nStruct; j++ {
		switch {
		case !math.IsInf(in.lo[j], -1):
			in.vstat[j] = vsLower
		case !math.IsInf(in.hi[j], 1):
			in.vstat[j] = vsUpper
		default:
			in.vstat[j] = vsFree
		}
	}
	for i := 0; i < in.m; i++ {
		in.basis[i] = int32(in.nStruct + i)
		in.vstat[in.nStruct+i] = vsBasic
	}
	in.fac.reset(in.m)
	in.ready = true
}

// repairStatuses fixes nonbasic statuses that bound updates invalidated
// (e.g. a variable recorded at a lower bound that is now -inf).
func (in *Instance) repairStatuses() {
	for j := 0; j < in.n; j++ {
		switch in.vstat[j] {
		case vsLower:
			if math.IsInf(in.lo[j], -1) {
				if math.IsInf(in.hi[j], 1) {
					in.vstat[j] = vsFree
				} else {
					in.vstat[j] = vsUpper
				}
			}
		case vsUpper:
			if math.IsInf(in.hi[j], 1) {
				if math.IsInf(in.lo[j], -1) {
					in.vstat[j] = vsFree
				} else {
					in.vstat[j] = vsLower
				}
			}
		}
	}
}

// computeXB evaluates the basic variable values for the current bounds:
// x_B = B⁻¹(b - N·x_N).
func (in *Instance) computeXB() {
	copy(in.accum, in.b)
	for j := 0; j < in.n; j++ {
		if in.vstat[j] == vsBasic {
			continue
		}
		v := in.value(j)
		if v == 0 {
			continue
		}
		if j < in.nStruct {
			for k := in.colPtr[j]; k < in.colPtr[j+1]; k++ {
				in.accum[in.colRow[k]] -= in.colVal[k] * v
			}
		} else {
			in.accum[j-in.nStruct] -= v
		}
	}
	in.fac.ftran(in.accum)
	copy(in.xB, in.accum)
}

// ftran computes w = B⁻¹·A_q for entering column q and records w's
// pattern.
func (in *Instance) ftran(q int) {
	in.wPat = in.fac.ftranCol(in, q, in.w, in.wPat[:0])
}

// colDot returns y·A_j for column j (slack columns are unit vectors).
func (in *Instance) colDot(y []float64, j int) float64 {
	if j >= in.nStruct {
		return y[j-in.nStruct]
	}
	var s float64
	for k := in.colPtr[j]; k < in.colPtr[j+1]; k++ {
		s += y[in.colRow[k]] * in.colVal[k]
	}
	return s
}

// phase1 drives the basic variables inside their bounds, minimizing the sum
// of bound violations with a composite objective. It returns Optimal once
// feasible, Infeasible when the violation sum cannot reach zero.
func (in *Instance) phase1() (Status, error) {
	maxIter := 10000 * (in.m + in.n + 1)
	bland := false
	degen := 0
	for iter := 0; iter < maxIter; iter++ {
		ninf := 0
		for i := 0; i < in.m; i++ {
			j := in.basis[i]
			switch {
			case in.xB[i] < in.lo[j]-feasTol:
				in.cb1[i] = -1
				ninf++
			case in.xB[i] > in.hi[j]+feasTol:
				in.cb1[i] = 1
				ninf++
			default:
				in.cb1[i] = 0
			}
		}
		if ninf == 0 {
			return Optimal, nil
		}
		// BTRAN with the composite cost: y = cb1ᵀ·B⁻¹.
		for i := 0; i < in.m; i++ {
			in.y[i] = float64(in.cb1[i])
		}
		in.fac.btran(in.y)
		enter, dir := in.priceFromY(bland)
		if enter < 0 {
			return Infeasible, nil
		}
		in.ftran(enter)
		t, leave, toUpper, flip := in.ratioTest(enter, dir, true, bland)
		if leave < 0 && !flip {
			return Optimal, fmt.Errorf("lp: phase-1 ratio test found no blocking bound (m=%d n=%d)", in.m, in.n)
		}
		in.applyStep(enter, dir, t, leave, toUpper, flip, false)
		if in.facBad {
			return Optimal, fmt.Errorf("lp: basis refactorization failed mid-phase-1 (m=%d n=%d)", in.m, in.n)
		}
		if t <= degenTol {
			if degen++; degen > blandTrigger {
				bland = true
			}
		} else {
			degen, bland = 0, false
		}
	}
	return Optimal, fmt.Errorf("lp: phase-1 iteration limit exceeded (m=%d n=%d)", in.m, in.n)
}

// priceFromY selects an entering variable from exact reduced costs
// d_j = -y·A_j (phase-1 costs are zero for every nonbasic variable).
func (in *Instance) priceFromY(bland bool) (enter, dir int) {
	enter, dir = -1, 1
	best := costTol
	for j := 0; j < in.n; j++ {
		st := in.vstat[j]
		if st == vsBasic {
			continue
		}
		dj := -in.colDot(in.y, j)
		var score float64
		var dj0 int
		switch st {
		case vsLower:
			score, dj0 = -dj, 1
		case vsUpper:
			score, dj0 = dj, -1
		default: // free
			score = math.Abs(dj)
			if dj > 0 {
				dj0 = -1
			} else {
				dj0 = 1
			}
		}
		if score > best {
			enter, dir = j, dj0
			if bland {
				return
			}
			best = score
		}
	}
	return
}

// blocker is a basic variable that blocks the ratio test: its row, the
// step at which it reaches its target bound, and whether that bound is the
// upper one.
type blocker struct {
	t   float64
	row int32
	up  bool
}

// ratioTest runs the bounded-variable ratio test for entering variable
// enter moving in direction dir: every basic variable blocks at its own
// bounds, and the entering variable may flip across its range. In phase 1
// an infeasible basic blocks only at the bound it violates (becoming
// feasible), never while moving further away from it. Returns the step,
// the leaving row (-1 for a bound flip), which bound the leaver hits, and
// whether the step is a flip; leave < 0 with flip false means nothing
// blocks. It walks w's recorded pattern, which ascends, so the blocking
// rows are recorded in ascending row order for pickLeaving.
func (in *Instance) ratioTest(enter, dir int, phase1, bland bool) (t float64, leave int, toUpper, flip bool) {
	minT := math.Inf(1)
	if r := in.hi[enter] - in.lo[enter]; in.vstat[enter] != vsFree && !math.IsInf(r, 1) {
		minT = r
		flip = true
	}
	leave = -1
	blockers := in.blockers[:0]
	for _, i := range in.wPat {
		wi := in.w[i]
		if wi < pivotTol && wi > -pivotTol {
			continue
		}
		delta := -float64(dir) * wi
		j := in.basis[i]
		var target float64
		up := false
		if delta > 0 {
			switch {
			case phase1 && in.xB[i] < in.lo[j]-feasTol:
				target = in.lo[j] // becomes feasible at its lower bound
			case phase1 && in.xB[i] > in.hi[j]+feasTol:
				continue // moving further above upper: never blocks
			default:
				target = in.hi[j]
				up = true
			}
			if math.IsInf(target, 1) {
				continue
			}
		} else {
			switch {
			case phase1 && in.xB[i] > in.hi[j]+feasTol:
				target = in.hi[j]
				up = true
			case phase1 && in.xB[i] < in.lo[j]-feasTol:
				continue // moving further below lower: never blocks
			default:
				target = in.lo[j]
			}
			if math.IsInf(target, -1) {
				continue
			}
		}
		ti := (target - in.xB[i]) / delta
		if ti < 0 {
			ti = 0
		}
		blockers = append(blockers, blocker{t: ti, row: i, up: up})
		if ti < minT {
			minT = ti
			flip = false
		}
	}
	in.blockers = blockers
	if math.IsInf(minT, 1) {
		return 0, -1, false, false
	}
	if !flip {
		leave, toUpper = in.pickLeaving(minT, bland)
		if leave < 0 {
			// Numerical fallback: accept the flip if one exists.
			if r := in.hi[enter] - in.lo[enter]; in.vstat[enter] != vsFree && !math.IsInf(r, 1) {
				return r, -1, false, true
			}
			return 0, -1, false, false
		}
	}
	return minT, leave, toUpper, flip
}

// pickLeaving chooses among the ratio test's blocking rows at ratio ≤
// minT+tie the numerically best (largest |w|) or, under Bland's rule, the
// lowest variable index; ties go to the lowest row.
func (in *Instance) pickLeaving(minT float64, bland bool) (leave int, toUpper bool) {
	leave = -1
	tie := minT + tieTol*(1+minT)
	var bestW float64
	bestIdx := int32(math.MaxInt32)
	for _, b := range in.blockers {
		if b.t > tie {
			continue
		}
		i := int(b.row)
		if bland {
			if j := in.basis[i]; j < bestIdx {
				bestIdx, leave, toUpper = j, i, b.up
			}
		} else if aw := math.Abs(in.w[i]); aw > bestW {
			bestW, leave, toUpper = aw, i, b.up
		}
	}
	return
}

// applyStep moves the entering variable by t in direction dir, updating the
// basic values and either flipping the entering bound or pivoting.
// trackD must be true when phase 2's incremental reduced costs are live.
func (in *Instance) applyStep(enter, dir int, t float64, leave int, toUpper, flip, trackD bool) {
	if t != 0 {
		f := float64(dir) * t
		for _, i := range in.wPat {
			if wi := in.w[i]; wi != 0 {
				in.xB[i] -= f * wi
			}
		}
	}
	if flip {
		if in.vstat[enter] == vsLower {
			in.vstat[enter] = vsUpper
		} else {
			in.vstat[enter] = vsLower
		}
		return
	}
	v := in.value(enter) + float64(dir)*t
	out := in.basis[leave]
	if trackD {
		in.updateD(leave, enter, int(out))
	}
	// The leaving variable's value is henceforth implied by its status.
	if toUpper {
		in.vstat[out] = vsUpper
	} else {
		in.vstat[out] = vsLower
	}
	in.basis[leave] = int32(enter)
	in.vstat[enter] = vsBasic
	if !in.fac.update(leave, in.w, in.wPat) {
		// The eta chain is full or the pivot is too small to absorb:
		// refactorize from the (already updated) basis instead. A singular
		// refactorization poisons the phase loop via facBad, which routes
		// back through SolveCurrent's crash-and-retry.
		if !in.refactorize() {
			in.facBad = true
		}
	}
	in.xB[leave] = v
	in.pivots++
}

// updateD maintains the phase-2 reduced costs across the pivot on row
// `leave` with entering column `enter`: d'_j = d_j - (d_q/w_r)·α_rj where
// α_r = ρ_r·N and ρ_r is row r of the pre-pivot B⁻¹.
//
// α_r is built row by row from the row-major mirror over the nonzeros of
// ρ_r in ascending row order. That is the order colDot sums a column in,
// minus the terms with a zero ρ entry, which add a zero to the sum and so
// cannot change it: every α_rj is bit-identical to colDot(ρ_r, j).
func (in *Instance) updateD(leave, enter, out int) {
	ratio := in.d[enter] / in.w[leave]
	if ratio == 0 {
		in.d[enter] = 0
		in.d[out] = 0
		return
	}
	rho := in.rowScratch
	in.fac.rowOfInverse(leave, rho)
	cols := in.alphaCols[:0]
	for i, ri := range rho {
		if ri == 0 {
			continue
		}
		if j := in.nStruct + i; in.vstat[j] != vsBasic && j != enter {
			in.d[j] -= ratio * ri // slack column: α_rj = ρ_ri
		}
		for k := in.rowPtr[i]; k < in.rowPtr[i+1]; k++ {
			j := in.rowCol[k]
			if in.vstat[j] == vsBasic || int(j) == enter {
				continue
			}
			if !in.alphaSeen[j] {
				in.alphaSeen[j] = true
				cols = append(cols, j)
			}
			in.alpha[j] += ri * in.rowVal[k]
		}
	}
	for _, j := range cols {
		if a := in.alpha[j]; a != 0 {
			in.d[j] -= ratio * a
		}
		in.alpha[j] = 0
		in.alphaSeen[j] = false
	}
	in.alphaCols = cols
	in.d[enter] = 0
	in.d[out] = -ratio
}

// refreshD recomputes the phase-2 reduced costs exactly:
// d_j = c_j - (c_Bᵀ·B⁻¹)·A_j.
func (in *Instance) refreshD() {
	for i := 0; i < in.m; i++ {
		in.y[i] = in.cmin[in.basis[i]]
	}
	in.fac.btran(in.y)
	for j := 0; j < in.n; j++ {
		if in.vstat[j] == vsBasic {
			in.d[j] = 0
		} else {
			in.d[j] = in.cmin[j] - in.colDot(in.y, j)
		}
	}
	in.dExact = true
}

// pickFromD selects a phase-2 entering variable from the maintained
// reduced costs.
func (in *Instance) pickFromD(bland bool) (enter, dir int) {
	enter, dir = -1, 1
	best := costTol
	for j := 0; j < in.n; j++ {
		var score float64
		var dj0 int
		switch in.vstat[j] {
		case vsLower:
			score, dj0 = -in.d[j], 1
		case vsUpper:
			score, dj0 = in.d[j], -1
		case vsFree:
			score = math.Abs(in.d[j])
			if in.d[j] > 0 {
				dj0 = -1
			} else {
				dj0 = 1
			}
		default:
			continue
		}
		if score > best {
			enter, dir = j, dj0
			if bland {
				return
			}
			best = score
		}
	}
	return
}

// phase2 optimizes the true objective from a primal-feasible basis.
func (in *Instance) phase2() (Status, error) {
	in.refreshD()
	maxIter := 10000 * (in.m + in.n + 1)
	bland := false
	degen := 0
	for iter := 0; iter < maxIter; iter++ {
		enter, dir := in.pickFromD(bland)
		if enter < 0 {
			if !in.dExact {
				in.refreshD()
				if e2, _ := in.pickFromD(bland); e2 >= 0 {
					continue
				}
			}
			return Optimal, nil
		}
		in.ftran(enter)
		t, leave, toUpper, flip := in.ratioTest(enter, dir, false, bland)
		if leave < 0 && !flip {
			return Unbounded, nil
		}
		in.applyStep(enter, dir, t, leave, toUpper, flip, true)
		if in.facBad {
			return Optimal, fmt.Errorf("lp: basis refactorization failed mid-phase-2 (m=%d n=%d)", in.m, in.n)
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
	return Optimal, fmt.Errorf("lp: phase-2 iteration limit exceeded (m=%d n=%d)", in.m, in.n)
}

// residualOK verifies Ax + s = b actually holds at the claimed optimum,
// catching accumulated factorization error.
func (in *Instance) residualOK() bool {
	vals := in.fillValues()
	for i := 0; i < in.m; i++ {
		var lhs float64
		for k := in.rowPtr[i]; k < in.rowPtr[i+1]; k++ {
			lhs += in.rowVal[k] * vals[in.rowCol[k]]
		}
		lhs += vals[in.nStruct+i]
		if diff := lhs - in.b[i]; diff > residTol || diff < -residTol {
			return false
		}
	}
	return true
}

// refactorize rebuilds the basis factorization from the current basis
// columns. Returns false if B is numerically singular (the caller then
// falls back to the all-slack crash basis).
func (in *Instance) refactorize() bool {
	in.refactors++
	return in.fac.refactor(in)
}

// Refactors returns the cumulative basis refactorization count across all
// solves (explicit rebuilds plus eta-chain-triggered ones).
func (in *Instance) Refactors() int64 { return in.refactors }

// EtaChainLen returns the current length of the factorization's eta
// chain: the updates applied since the last refactorization.
func (in *Instance) EtaChainLen() int { return in.fac.etaLen() }
