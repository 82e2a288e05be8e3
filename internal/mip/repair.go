package mip

import (
	"math"

	"github.com/vbcloud/vb/internal/lp"
)

// SolveRelaxationRounded is the degradation path below full branch and
// bound: solve the LP relaxation once, round every integer variable to the
// nearest integer (clamped into its bounds), fix it there, and re-solve
// the continuous variables around the rounding. It performs at most two LP
// solves on one fresh instance and needs no node budget (it IS the
// truncated-search fallback).
//
// The result is integer feasible whenever the rounding satisfies the
// integer-coupling constraints; when it does not (Status != Optimal) the
// caller falls through to its next tier. Proven is never set: a rounding
// is a repair, not an optimum.
func SolveRelaxationRounded(p Problem) (Solution, error) {
	if err := validate(p); err != nil {
		return Solution{}, err
	}
	integer := make([]bool, p.NumVars)
	copy(integer, p.Integer)

	inst, err := lp.NewInstance(p.Problem)
	if err != nil {
		return Solution{}, err
	}
	minSense := func(v float64) float64 {
		if p.Maximize {
			return -v
		}
		return v
	}

	res := Solution{Status: lp.Infeasible, Objective: math.Inf(1)}
	st, err := inst.SolveCurrent()
	if err != nil {
		return Solution{}, err
	}
	res.Nodes = 1
	if st != lp.Optimal {
		res.Status = st
		res.Pivots = inst.Pivots()
		return finish(res, p), nil
	}
	x := inst.Values(nil)
	rounded := false
	for j := 0; j < p.NumVars; j++ {
		if !integer[j] {
			continue
		}
		r := math.Round(x[j])
		r = math.Max(math.Ceil(p.LowerOf(j)), math.Min(r, math.Floor(p.UpperOf(j))))
		lo, hi := inst.Bounds(j)
		if r < lo || r > hi {
			r = math.Max(lo, math.Min(r, hi))
		}
		inst.SetBound(j, r, r)
		rounded = true
	}
	if rounded {
		st, err = inst.SolveCurrent()
		if err != nil {
			return Solution{}, err
		}
		res.Nodes = 2
	}
	res.Status = st
	res.Pivots = inst.Pivots()
	res.Refactors = inst.Refactors()
	res.EtaChainLen = inst.EtaChainLen()
	if st == lp.Optimal {
		res.X = roundIntegers(inst.Values(nil), integer)
		res.Objective = minSense(inst.ObjectiveValue())
	}
	return finish(res, p), nil
}
