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
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

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
	// Gap is the relative optimality gap at which search stops early
	// (0 = prove optimality exactly, up to tolerance). It is honored both
	// after a new incumbent and in the best-first bound prune: when the
	// smallest outstanding node bound is within Gap of the incumbent the
	// search stops with Proven = true.
	Gap float64
	// Warm, when non-nil, carries the compiled LP instance and optimal
	// basis between Solve calls. If the new problem is structurally
	// identical to the carried one (same dimensions, senses, coefficients)
	// the root LP warm-starts from the previous optimal basis; otherwise
	// the instance is recompiled and the state updated.
	Warm *WarmState
	// Workers >= 1 evaluates open nodes concurrently on internal/par with
	// that many workers. Results are selected deterministically (nodes are
	// processed in strict (bound, id) order regardless of which worker
	// finishes first), so the solution is bit-identical for any worker
	// count >= 1. Workers = 0 solves every node in turn on the carried
	// instance.
	Workers int
	// Deadline, when positive, bounds the solve's wall-clock time. When it
	// expires the search stops at the next interrupt poll and returns the
	// best incumbent found with DeadlineExceeded set — never an error. A
	// wall-clock deadline is inherently nondeterministic; callers needing
	// bit-identical truncation should derate MaxNodes instead (the
	// scheduler's solver-slowdown fault does exactly that).
	Deadline time.Duration
	// Ctx, when non-nil, cancels the solve: cancellation behaves like an
	// expired Deadline (incumbent returned, DeadlineExceeded set).
	Ctx context.Context
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
	// Proven is true when optimality was proven (tree exhausted within the
	// gap), false when the node limit truncated the search.
	Proven bool
	// Pivots is the total simplex pivots across all node solves.
	Pivots int64
	// Refactors is the total basis refactorizations across all node solves.
	Refactors int64
	// EtaChainLen is the eta-chain length of the carried instance's basis
	// factorization when the search ends (the final node solve's on the
	// serial path, the root's with Workers >= 1).
	EtaChainLen int
	// WarmHit is true when a WarmState basis was reused for the root solve.
	WarmHit bool
	// DeadlineExceeded is true when Options.Deadline expired or Options.Ctx
	// was canceled before the search concluded. The solution carries the
	// best incumbent found so far (Status Optimal when one exists, with
	// Proven false) — deadline expiry is degradation, not failure.
	DeadlineExceeded bool
}

const intTol = 1e-6

// interrupter adapts Options.Deadline/Ctx into the lp interrupt hook.
// Once fired it stays fired (atomically), so every worker instance sharing
// the hook stops, and retry loops cannot resurrect an expired solve.
type interrupter struct {
	ctx      context.Context
	deadline time.Time
	fired    atomic.Bool
}

// newInterrupter returns nil when no deadline or context is configured,
// keeping the zero-option hot path free of time syscalls.
func newInterrupter(opt Options) *interrupter {
	if opt.Deadline <= 0 && opt.Ctx == nil {
		return nil
	}
	it := &interrupter{ctx: opt.Ctx}
	if opt.Deadline > 0 {
		it.deadline = time.Now().Add(opt.Deadline)
	}
	return it
}

// check reports (and latches) whether the solve should stop. Safe for
// concurrent use from parallel node workers.
func (it *interrupter) check() bool {
	if it == nil {
		return false
	}
	if it.fired.Load() {
		return true
	}
	if (it.ctx != nil && it.ctx.Err() != nil) ||
		(!it.deadline.IsZero() && !time.Now().Before(it.deadline)) {
		it.fired.Store(true)
		return true
	}
	return false
}

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
// search, serial or parallel — is independent of heap internals.
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

	// Arm the deadline/cancellation hook on the carried instance; clones
	// (parallel workers) inherit it. Cleared before returning so a warm
	// successor solve does not abort against a stale deadline.
	intr := newInterrupter(opt)
	if intr != nil {
		inst.SetInterrupt(intr.check)
		defer inst.SetInterrupt(nil)
	}

	integer := make([]bool, p.NumVars)
	copy(integer, p.Integer)

	var ev evaluator
	if opt.Workers >= 1 {
		ev = newParallelEval(inst, opt.Workers, minSense)
	} else {
		ev = &serialEval{inst: inst, minSense: minSense}
	}
	res, err := branchAndBound(ev, integer, maxNodes, opt.Gap, intr)
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
	err       error
	st        lp.Status
	obj       float64   // minimization sense
	x         []float64 // relaxation solution
	pivots    int64
	refactors int64
}

// evaluator solves node relaxations for branchAndBound, which calls eval
// once per processed node, strictly in (bound, id) pop order. q holds the
// still-open nodes and incumbent the best objective so far; an evaluator
// may look ahead in q but must leave its pop order unchanged.
type evaluator interface {
	eval(nd *node, q *nodeQueue, incumbent float64) *nodeResult
}

// solveNode applies a node's bound changes to w on top of the root bounds,
// solves the relaxation, and records the outcome in r. The solution reuses
// r.x's storage; r.obj and r.x are meaningful only when r.st is Optimal.
func solveNode(w *lp.Instance, changes []bchange, minSense func(float64) float64, r *nodeResult) {
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
	p0, r0 := w.Pivots(), w.Refactors()
	r.st, r.err = w.SolveCurrent()
	r.pivots, r.refactors = w.Pivots()-p0, w.Refactors()-r0
	if r.err == nil && r.st == lp.Optimal {
		r.obj = minSense(w.ObjectiveValue())
		r.x = w.Values(r.x)
	}
}

// serialEval solves every node in turn on the carried instance, so each
// node warm-starts from the basis the previous node left behind, and
// reuses one result and solution buffer.
type serialEval struct {
	inst     *lp.Instance
	minSense func(float64) float64
	r        nodeResult
}

func (e *serialEval) eval(nd *node, _ *nodeQueue, _ float64) *nodeResult {
	solveNode(e.inst, nd.changes, e.minSense, &e.r)
	return &e.r
}

// branchAndBound runs the best-first search shared by the serial and
// parallel paths: pop, prune, evaluate, and then either record an
// incumbent or branch on the most fractional integer variable. Objectives
// are in minimization sense; the caller converts them back.
func branchAndBound(ev evaluator, integer []bool, maxNodes int, gap float64, intr *interrupter) (Solution, error) {
	res := Solution{Status: lp.Infeasible, Objective: math.Inf(1)}
	incumbent := math.Inf(1)
	var bestX []float64

	q := &nodeQueue{}
	heap.Push(q, &node{bound: math.Inf(-1)})
	nextID := int64(1)
	sawUnbounded := false

	for q.Len() > 0 && res.Nodes < maxNodes {
		if intr.check() {
			res.DeadlineExceeded = true
			break
		}
		nd := heap.Pop(q).(*node)
		// Bound prune: best-first means the popped bound is the global
		// minimum outstanding, so if it is already worse than the incumbent
		// — absolutely, or within the requested relative gap — we are done.
		if nd.bound >= incumbent-intTol {
			res.Proven = true
			break
		}
		if gap > 0 && !math.IsInf(incumbent, 1) && relGap(incumbent, nd.bound) <= gap {
			res.Proven = true
			break
		}
		res.Nodes++

		r := ev.eval(nd, q, incumbent)
		// A node the deadline cuts short still counts the work it did.
		res.Pivots += r.pivots
		res.Refactors += r.refactors
		if errors.Is(r.err, lp.ErrInterrupted) {
			res.DeadlineExceeded = true
			break
		}
		if r.err != nil {
			return Solution{}, r.err
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
			if gap > 0 && q.Len() > 0 && relGap(incumbent, (*q)[0].bound) <= gap {
				res.Proven = true
				break
			}
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
	if q.Len() == 0 && !res.DeadlineExceeded {
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

func relGap(incumbent, bound float64) float64 {
	if math.IsInf(bound, -1) {
		return math.Inf(1)
	}
	den := math.Max(1, math.Abs(incumbent))
	return (incumbent - bound) / den
}
