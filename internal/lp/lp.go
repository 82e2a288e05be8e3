// Package lp implements linear-program solvers for the scheduling stack.
// It is the optimization substrate under internal/mip and, through it, the
// paper's MIP scheduling policies (§3.1) — Go has no native optimization
// stack, so we build one.
//
// Problems are stated over bounded variables (default x >= 0) with linear
// constraints of any sense. Solve uses the bounded revised simplex in
// revised.go over a sparse LU basis factorization (sparselu.go), with
// Dantzig pricing, a Bland anti-cycling fallback, and warm starts via
// Instance. SolveReference in reference.go keeps the original dense
// two-phase Bland tableau as an independent oracle for differential tests
// and benchmarks; no production path calls it. It stays exported here
// because the oracle must be importable from internal/mip's tests, which a
// _test.go file cannot provide.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the direction of a linear constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // a·x <= b
	GE              // a·x >= b
	EQ              // a·x == b
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "=="
	}
}

// Constraint is one linear constraint a·x (sense) b in sparse form: a_j is
// Val[k] for j = Idx[k], and zero for every variable Idx omits. Idx is
// strictly increasing and Val has the same length; an explicit zero in Val
// is allowed and compiles away.
type Constraint struct {
	Idx   []int32
	Val   []float64
	Sense Sense
	RHS   float64
}

// Problem is a linear program over n bounded variables.
type Problem struct {
	// NumVars is the variable count n.
	NumVars int
	// Objective holds the cost coefficients c (len <= n, zero padded).
	Objective []float64
	// Maximize flips the sense of optimization (default: minimize).
	Maximize bool
	// Constraints are the rows.
	Constraints []Constraint
	// Lower and Upper are optional per-variable bounds (len <= n). Missing
	// entries default to [0, +inf): a nil Lower/Upper pair is the classic
	// nonnegative-variable program. Use math.Inf(-1)/math.Inf(1) for
	// unbounded sides. A variable with Lower > Upper makes the problem
	// infeasible (not malformed).
	Lower []float64
	Upper []float64
}

// LowerOf returns variable j's lower bound (default 0).
func (p Problem) LowerOf(j int) float64 {
	if j < len(p.Lower) {
		return p.Lower[j]
	}
	return 0
}

// UpperOf returns variable j's upper bound (default +inf).
func (p Problem) UpperOf(j int) float64 {
	if j < len(p.Upper) {
		return p.Upper[j]
	}
	return math.Inf(1)
}

// Status reports how solving ended.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	default:
		return "unbounded"
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status Status
	// X is the optimal assignment (len NumVars), valid when Status ==
	// Optimal.
	X []float64
	// Objective is the optimal objective value in the problem's own sense.
	Objective float64
	// Pivots is the number of simplex pivots the solve performed.
	Pivots int64
}

// ErrBadProblem reports a malformed problem.
var ErrBadProblem = errors.New("lp: malformed problem")

const eps = 1e-9

// Validate reports structural problems.
func (p Problem) Validate() error {
	if p.NumVars <= 0 {
		return fmt.Errorf("%w: NumVars = %d", ErrBadProblem, p.NumVars)
	}
	if len(p.Objective) > p.NumVars {
		return fmt.Errorf("%w: objective has %d coeffs for %d vars", ErrBadProblem, len(p.Objective), p.NumVars)
	}
	if len(p.Lower) > p.NumVars {
		return fmt.Errorf("%w: %d lower bounds for %d vars", ErrBadProblem, len(p.Lower), p.NumVars)
	}
	if len(p.Upper) > p.NumVars {
		return fmt.Errorf("%w: %d upper bounds for %d vars", ErrBadProblem, len(p.Upper), p.NumVars)
	}
	for j, v := range p.Lower {
		if math.IsNaN(v) || math.IsInf(v, 1) {
			return fmt.Errorf("%w: variable %d lower bound %v", ErrBadProblem, j, v)
		}
	}
	for j, v := range p.Upper {
		if math.IsNaN(v) || math.IsInf(v, -1) {
			return fmt.Errorf("%w: variable %d upper bound %v", ErrBadProblem, j, v)
		}
	}
	for i, c := range p.Constraints {
		if len(c.Idx) != len(c.Val) {
			return fmt.Errorf("%w: constraint %d has %d indices and %d values", ErrBadProblem, i, len(c.Idx), len(c.Val))
		}
		if c.Sense != LE && c.Sense != GE && c.Sense != EQ {
			return fmt.Errorf("%w: constraint %d has unknown sense %d", ErrBadProblem, i, int(c.Sense))
		}
		prev := int32(-1)
		for k, j := range c.Idx {
			if j < 0 || int(j) >= p.NumVars {
				return fmt.Errorf("%w: constraint %d entry %d has index %d outside [0,%d)", ErrBadProblem, i, k, j, p.NumVars)
			}
			if j <= prev {
				return fmt.Errorf("%w: constraint %d entry %d has index %d after %d (indices must strictly increase)", ErrBadProblem, i, k, j, prev)
			}
			prev = j
			if v := c.Val[k]; math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: constraint %d entry %d has non-finite coefficient %v", ErrBadProblem, i, k, v)
			}
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("%w: constraint %d has non-finite RHS", ErrBadProblem, i)
		}
	}
	for _, v := range p.Objective {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite objective coefficient", ErrBadProblem)
		}
	}
	return nil
}

// Solve solves the linear program with the bounded revised simplex.
func Solve(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	in, err := NewInstance(p)
	if err != nil {
		return Solution{}, err
	}
	st, err := in.SolveCurrent()
	if err != nil {
		return Solution{}, err
	}
	sol := Solution{Status: st, Pivots: in.Pivots()}
	if st == Optimal {
		sol.X = in.Values(nil)
		for j, c := range p.Objective {
			sol.Objective += c * sol.X[j]
		}
	}
	return sol, nil
}
