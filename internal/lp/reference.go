package lp

import (
	"errors"
	"fmt"
	"math"
)

// This file preserves the original dense two-phase primal simplex (Bland's
// rule throughout, artificial variables for GE/EQ rows) as SolveReference.
// It is deliberately independent of the revised solver — different pivot
// rule, different data structures, different phase-1 construction — so the
// randomized differential tests in differential_test.go compare two
// genuinely distinct implementations. Bounds are handled by reduction: each
// finite lower bound shifts the variable, each finite upper bound adds an
// explicit row, free variables split into a difference of nonnegatives.

// SolveReference solves p with the legacy dense tableau simplex. Results
// agree with Solve (statuses exactly, objectives to solver tolerance), but
// it cold-starts every call and grows a row per finite upper bound, so it is
// only suitable as a test oracle and for small problems.
func SolveReference(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	// Reduce to nonnegative variables. Each original variable j maps to
	// column pos[j] with x_j = off[j] + x'_pos (and, for free variables,
	// x_j = x'_pos - x'_neg[j]); sign[j] = -1 encodes x_j = off[j] - x'_pos
	// used for upper-bounded variables with no finite lower bound.
	n := p.NumVars
	pos := make([]int, n)
	neg := make([]int, n)
	off := make([]float64, n)
	sign := make([]float64, n)
	cols := 0
	var extra []Constraint
	for j := 0; j < n; j++ {
		lo, hi := p.LowerOf(j), p.UpperOf(j)
		if lo > hi+eps {
			return Solution{Status: Infeasible}, nil
		}
		neg[j] = -1
		switch {
		case !math.IsInf(lo, -1):
			// x = lo + x', x' >= 0, with x' <= hi-lo when hi is finite.
			pos[j], off[j], sign[j] = cols, lo, 1
			cols++
			if !math.IsInf(hi, 1) {
				extra = append(extra, Constraint{Idx: []int32{int32(pos[j])}, Val: []float64{1}, Sense: LE, RHS: hi - lo})
			}
		case !math.IsInf(hi, 1):
			// x = hi - x', x' >= 0.
			pos[j], off[j], sign[j] = cols, hi, -1
			cols++
		default:
			// Free: x = x'⁺ - x'⁻.
			pos[j], sign[j] = cols, 1
			neg[j] = cols + 1
			cols += 2
		}
	}
	q := Problem{
		NumVars:   cols,
		Objective: make([]float64, cols),
		Maximize:  p.Maximize,
	}
	objOff := 0.0
	for j, c := range p.Objective {
		if c == 0 {
			continue
		}
		objOff += c * off[j]
		q.Objective[pos[j]] += c * sign[j]
		if neg[j] >= 0 {
			q.Objective[neg[j]] -= c
		}
	}
	// The reduced rows are dense: each lists every column, zeros included.
	all := make([]int32, cols)
	for j := range all {
		all[j] = int32(j)
	}
	for _, c := range p.Constraints {
		co := make([]float64, cols)
		rhs := c.RHS
		for t, v := range c.Val {
			if v == 0 {
				continue
			}
			j := c.Idx[t]
			rhs -= v * off[j]
			co[pos[j]] += v * sign[j]
			if neg[j] >= 0 {
				co[neg[j]] -= v
			}
		}
		q.Constraints = append(q.Constraints, Constraint{Idx: all, Val: co, Sense: c.Sense, RHS: rhs})
	}
	q.Constraints = append(q.Constraints, extra...)

	sol, err := solveTableau(q)
	if err != nil || sol.Status != Optimal {
		return sol, err
	}
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = off[j] + sign[j]*sol.X[pos[j]]
		if neg[j] >= 0 {
			x[j] -= sol.X[neg[j]]
		}
	}
	obj := objOff
	for j, c := range p.Objective {
		if c != 0 {
			obj += c * (x[j] - off[j])
		}
	}
	return Solution{Status: Optimal, X: x, Objective: obj, Pivots: sol.Pivots}, nil
}

// tableau is the dense simplex tableau: rows of coefficients over structural
// + slack + artificial columns, an RHS column, and a basis map.
type tableau struct {
	m, n    int // constraint rows, total columns (excluding RHS)
	nStruct int // structural variable count
	nArt    int // artificial variable count (last nArt columns)
	a       [][]float64
	rhs     []float64
	basis   []int // basis[i] = column basic in row i
	npiv    int64
}

// solveTableau runs the legacy two-phase simplex on a nonnegative-variable
// problem (bounds ignored; callers reduce them away first).
func solveTableau(p Problem) (Solution, error) {
	t := build(p)

	// Phase 1: drive artificials to zero.
	if t.nArt > 0 {
		obj := make([]float64, t.n)
		for j := t.n - t.nArt; j < t.n; j++ {
			obj[j] = 1
		}
		val, err := t.run(obj)
		if err != nil {
			return Solution{}, err
		}
		if val > 1e-7 {
			return Solution{Status: Infeasible, Pivots: t.npiv}, nil
		}
		t.evictArtificials()
	}

	// Phase 2: original objective (as minimization).
	obj := make([]float64, t.n)
	for j, c := range p.Objective {
		if p.Maximize {
			obj[j] = -c
		} else {
			obj[j] = c
		}
	}
	// Forbid artificials from re-entering.
	for j := t.n - t.nArt; j < t.n; j++ {
		obj[j] = 0
	}
	t.blockArtificials()
	val, err := t.run(obj)
	if err != nil {
		if errors.Is(err, errUnbounded) {
			return Solution{Status: Unbounded, Pivots: t.npiv}, nil
		}
		return Solution{}, err
	}

	x := make([]float64, p.NumVars)
	for i, b := range t.basis {
		if b < t.nStruct {
			x[b] = t.rhs[i]
		}
	}
	if p.Maximize {
		val = -val
	}
	return Solution{Status: Optimal, X: x, Objective: val, Pivots: t.npiv}, nil
}

// build constructs the initial tableau with slack and artificial columns and
// a feasible starting basis.
func build(p Problem) *tableau {
	m := len(p.Constraints)
	// Count slack and artificial columns.
	nSlack, nArt := 0, 0
	for _, c := range p.Constraints {
		rhs := c.RHS
		sense := c.Sense
		if rhs < 0 {
			sense = flip(sense)
		}
		switch sense {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	n := p.NumVars + nSlack + nArt
	t := &tableau{
		m:       m,
		n:       n,
		nStruct: p.NumVars,
		nArt:    nArt,
		a:       make([][]float64, m),
		rhs:     make([]float64, m),
		basis:   make([]int, m),
	}
	slackCol := p.NumVars
	artCol := p.NumVars + nSlack
	for i, c := range p.Constraints {
		row := make([]float64, n)
		sign := 1.0
		sense := c.Sense
		rhs := c.RHS
		if rhs < 0 {
			sign = -1
			rhs = -rhs
			sense = flip(sense)
		}
		for t, v := range c.Val {
			row[c.Idx[t]] = sign * v
		}
		t.rhs[i] = rhs
		switch sense {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.a[i] = row
	}
	return t
}

func flip(s Sense) Sense {
	switch s {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

var errUnbounded = errors.New("lp: unbounded")

// run minimizes obj·x over the current tableau using Bland's rule, returning
// the optimal value. The tableau is left at the optimal basis.
func (t *tableau) run(obj []float64) (float64, error) {
	// Reduced costs: z[j] = obj[j] - cb·B^-1·A_j. Maintain the objective
	// row explicitly, starting from obj and pricing out the basic columns.
	z := make([]float64, t.n)
	copy(z, obj)
	val := 0.0
	for i, b := range t.basis {
		if obj[b] != 0 {
			cb := obj[b]
			for j := 0; j < t.n; j++ {
				z[j] -= cb * t.a[i][j]
			}
			val += cb * t.rhs[i]
		}
	}

	maxIter := 10000 * (t.m + t.n + 1)
	for iter := 0; iter < maxIter; iter++ {
		// Bland: entering = lowest-index column with negative reduced cost.
		enter := -1
		for j := 0; j < t.n; j++ {
			if z[j] < -eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return val, nil // optimal
		}
		// Ratio test; Bland ties by lowest basis variable index.
		leave := -1
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][enter] > eps {
				r := t.rhs[i] / t.a[i][enter]
				if r < best-eps || (r < best+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					best = r
					leave = i
				}
			}
		}
		if leave < 0 {
			return 0, errUnbounded
		}
		t.pivot(leave, enter, z, &val)
	}
	return 0, fmt.Errorf("lp: iteration limit exceeded (m=%d n=%d)", t.m, t.n)
}

// pivot performs a pivot on (row, col), updating the objective row z and
// objective value.
func (t *tableau) pivot(row, col int, z []float64, val *float64) {
	piv := t.a[row][col]
	inv := 1 / piv
	for j := 0; j < t.n; j++ {
		t.a[row][j] *= inv
	}
	t.rhs[row] *= inv
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j < t.n; j++ {
			t.a[i][j] -= f * t.a[row][j]
		}
		t.rhs[i] -= f * t.rhs[row]
		if t.rhs[i] < 0 && t.rhs[i] > -eps {
			t.rhs[i] = 0
		}
	}
	f := z[col]
	if f != 0 {
		for j := 0; j < t.n; j++ {
			z[j] -= f * t.a[row][j]
		}
		*val += f * t.rhs[row]
	}
	t.basis[row] = col
	t.npiv++
}

// evictArtificials pivots any artificial variable that remains basic (at
// zero level after a successful phase 1) out of the basis where possible.
func (t *tableau) evictArtificials() {
	artStart := t.n - t.nArt
	for i := 0; i < t.m; i++ {
		if t.basis[i] < artStart {
			continue
		}
		// Find a non-artificial column with a nonzero entry to pivot in.
		for j := 0; j < artStart; j++ {
			if math.Abs(t.a[i][j]) > eps {
				dummy := make([]float64, t.n)
				var v float64
				t.pivot(i, j, dummy, &v)
				break
			}
		}
		// If none exists the row is redundant (all zeros); leave it.
	}
}

// blockArtificials zeroes artificial columns so they can never re-enter.
func (t *tableau) blockArtificials() {
	artStart := t.n - t.nArt
	for i := 0; i < t.m; i++ {
		for j := artStart; j < t.n; j++ {
			if t.basis[i] != j {
				t.a[i][j] = 0
			}
		}
	}
}
