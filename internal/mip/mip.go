// Package mip implements a branch-and-bound mixed-integer programming
// solver on top of internal/lp. It supports the problem shapes the paper's
// scheduler needs (§3.1): binary site-selection indicators combined with
// continuous allocation variables, and minimax (peak) objectives expressed
// through auxiliary variables.
//
// Branching tightens variable bounds on a single compiled lp.Instance
// instead of appending constraint rows, so the LP never grows with tree
// depth and every node solve warm-starts from the basis the previous node
// left behind. A Solver keeps that instance and recompiles every problem
// into it in place (lp.Instance.Load): only array capacity survives from
// one solve to the next, so an answer is a function of its problem alone.
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
	// EtaChainLen is the eta-chain length of the search instance's basis
	// factorization when the search ends.
	EtaChainLen int
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

// Solver runs branch and bound on one lp.Instance that it recompiles for
// every problem, so a sequence of solves reuses the instance's arrays, the
// integrality vector and the search scratch instead of allocating them
// anew. Nothing but capacity carries from one solve to the next: each
// result is the one a fresh Solver would return, bit for bit, and no
// returned slice aliases the Solver. The zero value is ready to use. A
// Solver is not safe for concurrent use.
type Solver struct {
	inst    lp.Instance
	integer []bool
	x       []float64 // the current node's relaxation
	bestX   []float64 // the incumbent, copied out by roundIntegers
	queue   nodeQueue
}

// Solve runs branch and bound on a fresh Solver.
func Solve(p Problem, opt Options) (Solution, error) {
	return new(Solver).Solve(p, opt)
}

// Solve runs branch and bound.
func (s *Solver) Solve(p Problem, opt Options) (Solution, error) {
	if err := s.load(p); err != nil {
		return Solution{}, err
	}
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 200000
	}
	res, err := s.branchAndBound(p.Maximize, maxNodes)
	if err != nil {
		return Solution{}, err
	}
	res.EtaChainLen = s.inst.EtaChainLen()
	return finish(res, p), nil
}

// load validates p and compiles it, with its integrality flags padded to
// every variable, into the Solver.
func (s *Solver) load(p Problem) error {
	if err := validate(p); err != nil {
		return err
	}
	if err := s.inst.Load(p.Problem); err != nil {
		return err
	}
	if cap(s.integer) < p.NumVars {
		s.integer = make([]bool, p.NumVars)
	}
	s.integer = s.integer[:p.NumVars]
	clear(s.integer[copy(s.integer, p.Integer):])
	return nil
}

// minSense converts an objective value in the problem's own sense to
// minimization sense.
func minSense(maximize bool, v float64) float64 {
	if maximize {
		return -v
	}
	return v
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
func solveNode(w *lp.Instance, changes []bchange, maximize bool, r *nodeResult) error {
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
		r.obj = minSense(maximize, w.ObjectiveValue())
		r.x = w.Values(r.x)
	}
	return nil
}

// branchAndBound runs the best-first search over the loaded problem: pop,
// prune, solve the node on the Solver's instance (so each node
// warm-starts from the basis the previous node left behind), and then
// either record an incumbent or branch on the most fractional integer
// variable. Objectives are in minimization sense; the caller converts them
// back.
func (s *Solver) branchAndBound(maximize bool, maxNodes int) (Solution, error) {
	inst, integer := &s.inst, s.integer
	res := Solution{Status: lp.Infeasible, Objective: math.Inf(1)}
	incumbent := math.Inf(1)
	bestX := s.bestX[:0]
	r := nodeResult{x: s.x}
	// Drop the last search's nodes, which its queue's storage still holds.
	clear(s.queue[:cap(s.queue)])
	q := &s.queue
	*q = (*q)[:0]

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

		if err := solveNode(inst, nd.changes, maximize, &r); err != nil {
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
	s.x, s.bestX = r.x, bestX
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
