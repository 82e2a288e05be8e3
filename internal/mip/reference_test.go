package mip

import (
	"container/heap"
	"math"

	"github.com/vbcloud/vb/internal/lp"
)

// The reference stack: the pre-rewrite row-branching branch and bound over
// the dense Bland tableau (lp.SolveReference), kept as the differential
// oracle for the production solver. It shares no search code with Solve:
// branching appends constraint rows instead of tightening bounds, and every
// node re-solves cold.

// solveReference is the legacy branch and bound: each branching decision
// appends a constraint row and every node re-solves cold with the dense
// Bland-rule reference simplex. Kept as the differential-test oracle.
func solveReference(p Problem, opt Options) (Solution, error) {
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 200000
	}

	// Work in minimization sense internally.
	base := p.Problem
	if base.Maximize {
		neg := make([]float64, len(base.Objective))
		for i, c := range base.Objective {
			neg[i] = -c
		}
		base.Objective = neg
		base.Maximize = false
	}

	integer := make([]bool, p.NumVars)
	copy(integer, p.Integer)

	res := Solution{Status: lp.Infeasible, Objective: math.Inf(1)}
	incumbent := math.Inf(1)

	q := &refQueue{}
	heap.Push(q, &refNode{bound: math.Inf(-1)})
	nextID := int64(1)
	sawUnbounded := false

	for q.Len() > 0 && res.Nodes < maxNodes {
		nd := heap.Pop(q).(*refNode)
		if nd.bound >= incumbent-intTol {
			res.Proven = true
			break
		}
		res.Nodes++

		sub := base
		sub.Constraints = append(append([]lp.Constraint(nil), base.Constraints...), nd.extras...)
		sol, err := lp.SolveReference(sub)
		if err != nil {
			return Solution{}, err
		}
		res.Pivots += sol.Pivots
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			sawUnbounded = true
			continue
		}
		if sol.Objective >= incumbent-intTol {
			continue
		}
		branchVar := -1
		worst := intTol
		for i := 0; i < p.NumVars; i++ {
			if !integer[i] {
				continue
			}
			frac := math.Abs(sol.X[i] - math.Round(sol.X[i]))
			if frac > worst {
				worst = frac
				branchVar = i
			}
		}
		if branchVar < 0 {
			incumbent = sol.Objective
			res.Status = lp.Optimal
			res.X = roundIntegers(sol.X, integer)
			res.Objective = sol.Objective
			continue
		}
		v := sol.X[branchVar]
		down := make([]float64, branchVar+1)
		down[branchVar] = 1
		left := append(append([]lp.Constraint(nil), nd.extras...),
			lp.Constraint{Coeffs: down, Sense: lp.LE, RHS: math.Floor(v)})
		right := append(append([]lp.Constraint(nil), nd.extras...),
			lp.Constraint{Coeffs: down, Sense: lp.GE, RHS: math.Ceil(v)})
		heap.Push(q, &refNode{bound: sol.Objective, id: nextID, extras: left})
		heap.Push(q, &refNode{bound: sol.Objective, id: nextID + 1, extras: right})
		nextID += 2
	}
	if q.Len() == 0 {
		res.Proven = true
	}
	if res.Status != lp.Optimal && sawUnbounded {
		res.Status = lp.Unbounded
		res.Proven = false
	}
	return finish(res, p), nil
}

// refNode is the legacy subproblem representation: extra constraint rows.
type refNode struct {
	bound  float64
	id     int64
	extras []lp.Constraint
}

// refQueue is the best-first priority queue for the legacy path, tie-broken
// by node id like nodeQueue.
type refQueue []*refNode

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	return q[i].id < q[j].id
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(*refNode)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// repairReference is the rounding repair over the legacy dense reference
// simplex, used when the caller differential-tests the degraded path too.
func repairReference(p Problem, integer []bool) (Solution, error) {
	res := Solution{Status: lp.Infeasible, Objective: math.Inf(1)}
	sol, err := lp.SolveReference(p.Problem)
	if err != nil {
		return Solution{}, err
	}
	res.Nodes = 1
	res.Pivots = sol.Pivots
	if sol.Status != lp.Optimal {
		res.Status = sol.Status
		if p.Maximize {
			res.Objective = math.Inf(-1)
		}
		return finish(res, p), nil
	}
	fixed := p.Problem
	fixed.Lower = make([]float64, p.NumVars)
	fixed.Upper = make([]float64, p.NumVars)
	for j := 0; j < p.NumVars; j++ {
		fixed.Lower[j] = p.LowerOf(j)
		fixed.Upper[j] = p.UpperOf(j)
		if integer[j] {
			r := math.Round(sol.X[j])
			r = math.Max(math.Ceil(fixed.Lower[j]), math.Min(r, math.Floor(fixed.Upper[j])))
			fixed.Lower[j], fixed.Upper[j] = r, r
		}
	}
	sol2, err := lp.SolveReference(fixed)
	if err != nil {
		return Solution{}, err
	}
	res.Nodes = 2
	res.Pivots += sol2.Pivots
	res.Status = sol2.Status
	if sol2.Status == lp.Optimal {
		res.X = roundIntegers(sol2.X, integer)
		res.Objective = sol2.Objective
		if p.Maximize {
			res.Objective = -res.Objective
		}
	}
	return finish(res, p), nil
}
