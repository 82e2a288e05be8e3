package mip

import (
	"math"

	"github.com/vbcloud/vb/internal/lp"
)

// SolveRelaxationRounded runs the rounding repair below on a fresh Solver.
func SolveRelaxationRounded(p Problem) (Solution, error) {
	return new(Solver).SolveRelaxationRounded(p)
}

// SolveRelaxationRounded is the degradation path below full branch and
// bound: solve the LP relaxation once, round every integer variable to the
// nearest integer (clamped into its bounds), fix it there, and re-solve
// the continuous variables around the rounding. It performs at most two LP
// solves on the Solver's instance, recompiled for p, and needs no node
// budget (it IS the truncated-search fallback).
//
// The result is integer feasible whenever the rounding satisfies the
// integer-coupling constraints; when it does not (Status != Optimal) the
// caller falls through to its next tier. Proven is never set: a rounding
// is a repair, not an optimum.
func (s *Solver) SolveRelaxationRounded(p Problem) (Solution, error) {
	if err := s.load(p); err != nil {
		return Solution{}, err
	}
	inst, integer := &s.inst, s.integer

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
	s.x = inst.Values(s.x)
	rounded := false
	for j := 0; j < p.NumVars; j++ {
		if !integer[j] {
			continue
		}
		r := math.Round(s.x[j])
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
		s.x = inst.Values(s.x)
		res.X = roundIntegers(s.x, integer)
		res.Objective = minSense(p.Maximize, inst.ObjectiveValue())
	}
	return finish(res, p), nil
}
