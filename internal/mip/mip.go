// Package mip implements a branch-and-bound mixed-integer programming
// solver on top of internal/lp. It supports the problem shapes the paper's
// scheduler needs (§3.1): binary site-selection indicators combined with
// continuous allocation variables, and minimax (peak) objectives expressed
// through auxiliary variables.
//
// Branching tightens variable bounds on a single compiled lp.Instance
// instead of appending constraint rows, so the LP never grows with tree
// depth and every node solve warm-starts from the basis the previous node
// left behind. A WarmState carries the instance (and its optimal basis)
// across Solve calls, letting a scheduler replan start from the previous
// interval's solution.
package mip

import (
	"container/heap"
	"fmt"
	"math"

	"github.com/vbcloud/vb/internal/lp"
)

// Problem is a linear program plus integrality constraints.
type Problem struct {
	lp.Problem
	// Integer[i] marks variable i as integer-constrained. A nil slice means
	// a pure LP. Shorter slices are zero (false) padded.
	Integer []bool
}

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxNodes caps the number of explored nodes (0 = default 200000).
	MaxNodes int
	// Warm, when non-nil, carries the compiled LP instance and optimal
	// basis between Solve calls. If the new problem is structurally
	// identical to the carried one (same dimensions, senses, coefficients)
	// the root LP warm-starts from the previous optimal basis; otherwise
	// the instance is recompiled and the state updated.
	Warm *WarmState
}

// WarmState carries solver state across Solve calls. The zero value is
// ready to use. A WarmState must not be shared between concurrent solves.
type WarmState struct {
	inst *lp.Instance
}

// Solution reports the MIP result.
type Solution struct {
	Status lp.Status
	// X is the best integer-feasible assignment found.
	X []float64
	// Objective is its objective value in the problem's own sense.
	Objective float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Proven is true when optimality was proven (tree exhausted), false
	// when the node limit truncated the search.
	Proven bool
	// Pivots is the total simplex pivots across all node solves.
	Pivots int64
	// Refactors is the total basis refactorizations across all node solves.
	Refactors int64
	// EtaChainLen is the eta-chain length of the carried instance's basis
	// factorization when the search ends.
	EtaChainLen int
	// WarmHit is true when a WarmState basis was reused for the root solve.
	WarmHit bool
}

const intTol = 1e-6

// bchange is one branching decision: a tightened bound on variable v.
type bchange struct {
	v     int32
	upper bool // true: v <= val, false: v >= val
	val   float64
}

// node is a branch-and-bound subproblem: bound tightenings layered on the
// root problem. changes is an append-only prefix list shared with siblings.
// id is the deterministic creation number (root 0, children numbered in
// branch order), which breaks bound ties in the queue.
type node struct {
	bound   float64 // LP relaxation value (minimization sense)
	id      int64
	changes []bchange
}

// nodeQueue is a best-first priority queue on the LP bound, with equal
// bounds ordered by node id so the pop order — and therefore the whole
// search — is independent of heap internals.
type nodeQueue []*node

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	return q[i].id < q[j].id
}
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// validate checks the base problem. Solve validates once, at the root;
// node subproblems only tighten bounds and need no re-validation.
func validate(p Problem) error {
	if err := p.Problem.Validate(); err != nil {
		return err
	}
	if len(p.Integer) > p.NumVars {
		return fmt.Errorf("mip: %d integrality flags for %d vars", len(p.Integer), p.NumVars)
	}
	return nil
}

// Solve runs branch and bound.
func Solve(p Problem, opt Options) (Solution, error) {
	if err := validate(p); err != nil {
		return Solution{}, err
	}
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 200000
	}

	// Compile (or warm-reuse) the LP instance. All objective values below
	// are handled in minimization sense via minSense.
	var inst *lp.Instance
	warmHit := false
	if opt.Warm != nil && opt.Warm.inst != nil && opt.Warm.inst.Refresh(p.Problem) {
		inst = opt.Warm.inst
		warmHit = true
	} else {
		var err error
		inst, err = lp.NewInstance(p.Problem)
		if err != nil {
			return Solution{}, err
		}
		if opt.Warm != nil {
			opt.Warm.inst = inst
		}
	}
	minSense := func(v float64) float64 {
		if p.Maximize {
			return -v
		}
		return v
	}

	integer := make([]bool, p.NumVars)
	copy(integer, p.Integer)

	res, err := branchAndBound(inst, minSense, integer, maxNodes)
	if err != nil {
		return Solution{}, err
	}
	res.WarmHit = warmHit
	res.EtaChainLen = inst.EtaChainLen()
	// Leave the instance at the root relaxation bounds so a warm successor
	// refreshes against the unbranched problem.
	inst.ResetBounds()
	return finish(res, p), nil
}

// nodeResult is the outcome of one node relaxation solve.
type nodeResult struct {
	st  lp.Status
	obj float64   // minimization sense
	x   []float64 // relaxation solution
}

// solveNode applies a node's bound changes to w on top of the root bounds,
// solves the relaxation, and records the outcome in r. The solution reuses
// r.x's storage; r.obj and r.x are meaningful only when r.st is Optimal.
func solveNode(w *lp.Instance, changes []bchange, minSense func(float64) float64, r *nodeResult) error {
	w.ResetBounds()
	for _, c := range changes {
		lo, hi := w.Bounds(int(c.v))
		if c.upper {
			if c.val < hi {
				hi = c.val
			}
		} else {
			if c.val > lo {
				lo = c.val
			}
		}
		w.SetBound(int(c.v), lo, hi)
	}
	st, err := w.SolveCurrent()
	if err != nil {
		return err
	}
	r.st = st
	if st == lp.Optimal {
		r.obj = minSense(w.ObjectiveValue())
		r.x = w.Values(r.x)
	}
	return nil
}

// branchAndBound runs the best-first search: pop, prune, solve the node on
// the carried instance (so each node warm-starts from the basis the
// previous node left behind), and then either record an incumbent or
// branch on the most fractional integer variable. Objectives are in
// minimization sense; the caller converts them back.
func branchAndBound(inst *lp.Instance, minSense func(float64) float64, integer []bool, maxNodes int) (Solution, error) {
	res := Solution{Status: lp.Infeasible, Objective: math.Inf(1)}
	incumbent := math.Inf(1)
	var bestX []float64
	var r nodeResult

	q := &nodeQueue{}
	heap.Push(q, &node{bound: math.Inf(-1)})
	nextID := int64(1)
	sawUnbounded := false
	p0, r0 := inst.Pivots(), inst.Refactors()

	for q.Len() > 0 && res.Nodes < maxNodes {
		nd := heap.Pop(q).(*node)
		// Bound prune: best-first means the popped bound is the global
		// minimum outstanding, so if it is already no better than the
		// incumbent we are done.
		if nd.bound >= incumbent-intTol {
			res.Proven = true
			break
		}
		res.Nodes++

		if err := solveNode(inst, nd.changes, minSense, &r); err != nil {
			return Solution{}, err
		}
		switch r.st {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			// The relaxation is unbounded. If the root is unbounded the
			// MIP may be unbounded or infeasible; record and continue
			// (branching cannot bound a truly unbounded integer problem,
			// so report it).
			sawUnbounded = true
			continue
		}
		if r.obj >= incumbent-intTol {
			continue
		}
		// Find the most fractional integer variable.
		branchVar := -1
		worst := intTol
		for i, isInt := range integer {
			if !isInt {
				continue
			}
			frac := math.Abs(r.x[i] - math.Round(r.x[i]))
			if frac > worst {
				worst = frac
				branchVar = i
			}
		}
		if branchVar < 0 {
			// Integer feasible: new incumbent.
			incumbent = r.obj
			res.Status = lp.Optimal
			bestX = append(bestX[:0], r.x...)
			res.Objective = r.obj
			continue
		}
		// Branch by bound tightening. The parent's change list is the
		// shared prefix; the full-capacity append goes to the left child
		// and the right child reallocates, so siblings never alias.
		v := r.x[branchVar]
		left := append(nd.changes[:len(nd.changes):len(nd.changes)],
			bchange{v: int32(branchVar), upper: true, val: math.Floor(v)})
		right := append(nd.changes[:len(nd.changes):len(nd.changes)],
			bchange{v: int32(branchVar), upper: false, val: math.Ceil(v)})
		heap.Push(q, &node{bound: r.obj, id: nextID, changes: left})
		heap.Push(q, &node{bound: r.obj, id: nextID + 1, changes: right})
		nextID += 2
	}
	res.Pivots, res.Refactors = inst.Pivots()-p0, inst.Refactors()-r0
	if q.Len() == 0 {
		res.Proven = true
	}
	if res.Status == lp.Optimal {
		res.X = roundIntegers(bestX, integer)
	}
	if res.Status != lp.Optimal && sawUnbounded {
		res.Status = lp.Unbounded
		res.Proven = false
	}
	return res, nil
}

// finish converts the internal minimization value back to the problem's own
// sense.
func finish(res Solution, p Problem) Solution {
	if p.Maximize && res.Status == lp.Optimal {
		res.Objective = -res.Objective
	}
	if res.Status != lp.Optimal {
		res.X = nil
		res.Objective = 0
	}
	return res
}

// roundIntegers snaps integer variables to the nearest integer (they are
// within tolerance already) and clamps tiny negatives.
func roundIntegers(x []float64, integer []bool) []float64 {
	out := append([]float64(nil), x...)
	for i := range out {
		if integer[i] {
			out[i] = math.Round(out[i])
		}
		if out[i] < 0 && out[i] > -intTol {
			out[i] = 0
		}
	}
	return out
}
