package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameSolve solves got and want under their current bounds and fails
// unless the two agree bit for bit: status and error, pivots,
// refactorizations and eta-chain length, and at an optimum every entry of
// X and the objective.
func sameSolve(t *testing.T, name string, got, want *Instance) Status {
	t.Helper()
	st, err := got.SolveCurrent()
	wantSt, wantErr := want.SolveCurrent()
	if st != wantSt || (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: %v/%v, fresh instance %v/%v", name, st, err, wantSt, wantErr)
	}
	if got.Pivots() != want.Pivots() || got.Refactors() != want.Refactors() || got.EtaChainLen() != want.EtaChainLen() {
		t.Fatalf("%s: %d pivots, %d refactorizations, eta chain %d; fresh instance %d, %d, %d", name,
			got.Pivots(), got.Refactors(), got.EtaChainLen(), want.Pivots(), want.Refactors(), want.EtaChainLen())
	}
	if st != Optimal {
		return st
	}
	x, wantX := got.Values(nil), want.Values(nil)
	for j := range wantX {
		if math.Float64bits(x[j]) != math.Float64bits(wantX[j]) {
			t.Fatalf("%s: x[%d] = %v, fresh instance %v", name, j, x[j], wantX[j])
		}
	}
	if obj, wantObj := got.ObjectiveValue(), want.ObjectiveValue(); math.Float64bits(obj) != math.Float64bits(wantObj) {
		t.Fatalf("%s: objective %v, fresh instance %v", name, obj, wantObj)
	}
	return st
}

// sizeTrend records whether a sequence of sizes ever fell below its
// predecessor and, after that, ever rose above one.
type sizeTrend struct {
	last           int
	shrank, regrew bool
}

func (s *sizeTrend) see(n int) {
	if s.last > 0 && n < s.last {
		s.shrank = true
	}
	if s.shrank && n > s.last {
		s.regrew = true
	}
	s.last = n
}

// TestLoadMatchesNewInstance holds Load to its contract: an instance that
// held other problems, and solved them under tightened bounds, behaves
// after Load(p) exactly as NewInstance(p) does. The problems alternate
// between small random LPs and placement-shaped LPs of several sizes, so
// rows, variables and nonzeros each shrink and grow from one Load to the
// next. Every solve, cold and after each tightening, must match the fresh
// instance's bit for bit.
func TestLoadMatchesNewInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shapes := []struct {
		k, H int
		peak bool
	}{{1, 6, false}, {3, 10, true}, {2, 24, true}, {3, 4, false}, {2, 12, true}, {1, 30, false}}
	reused := new(Instance)
	var rows, vars, nnz sizeTrend
	for i := 0; i < 48; i++ {
		var p Problem
		if i%4 == 3 {
			sh := shapes[(i/4)%len(shapes)]
			p = placementLP(rng, sh.k, sh.H, sh.peak)
		} else {
			p = randomProblem(rng, i%2 == 0)
		}
		if err := reused.Load(p); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewInstance(p)
		if err != nil {
			t.Fatal(err)
		}
		rows.see(reused.m)
		vars.see(reused.nStruct)
		nnz.see(len(reused.colRow))
		name := fmt.Sprintf("problem %d (%d rows, %d variables)", i, reused.m, reused.nStruct)
		sameSolve(t, name+" cold", reused, fresh)
		for round := 0; round < 3; round++ {
			j := rng.Intn(p.NumVars)
			lo, _ := fresh.Bounds(j)
			if math.IsInf(lo, -1) {
				lo = -5
			}
			hi := lo + float64(rng.Intn(3))
			reused.SetBound(j, lo, hi)
			fresh.SetBound(j, lo, hi)
			sameSolve(t, fmt.Sprintf("%s after tightening %d", name, round+1), reused, fresh)
		}
	}
	for _, tr := range []struct {
		name string
		sizeTrend
	}{{"rows", rows}, {"variables", vars}, {"nonzeros", nnz}} {
		if !tr.shrank || !tr.regrew {
			t.Errorf("the loaded %s never shrank and then regrew (shrank %v, regrew %v)", tr.name, tr.shrank, tr.regrew)
		}
	}
}

// TestLoadClearsScratch dirties every scratch array the kernels need zero
// between calls, as a solve that stopped mid-kernel could leave them, and
// requires Load to hand back all of them zero, for a smaller problem and
// for a larger one. It also requires the counters and basis state to start
// over.
func TestLoadClearsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in, err := NewInstance(placementLP(rng, 2, 20, true))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := in.SolveCurrent(); err != nil || st != Optimal {
		t.Fatalf("status %v, error %v", st, err)
	}
	for _, p := range []Problem{placementLP(rng, 1, 8, false), placementLP(rng, 3, 24, true)} {
		for j := range in.alpha {
			in.alpha[j], in.alphaSeen[j] = 1, true
		}
		f := in.fac
		for k := range f.vecSet {
			f.vecSet[k], f.stepSet[k] = ^uint64(0), ^uint64(0)
		}
		for k := range f.accMark {
			f.accMark[k] = 7
		}
		f.accStamp = 7
		if err := in.Load(p); err != nil {
			t.Fatal(err)
		}
		if in.ready || in.facBad || in.dExact || in.Pivots() != 0 || in.Refactors() != 0 || in.EtaChainLen() != 0 {
			t.Fatalf("after Load: ready %v, facBad %v, dExact %v, %d pivots, %d refactorizations, eta chain %d",
				in.ready, in.facBad, in.dExact, in.Pivots(), in.Refactors(), in.EtaChainLen())
		}
		for j := range in.alpha {
			if in.alpha[j] != 0 || in.alphaSeen[j] {
				t.Fatalf("after Load: alpha[%d] = %v, seen %v", j, in.alpha[j], in.alphaSeen[j])
			}
		}
		for k := range f.vecSet {
			if f.vecSet[k] != 0 || f.stepSet[k] != 0 {
				t.Fatalf("after Load: vecSet word %d = %#x, stepSet %#x", k, f.vecSet[k], f.stepSet[k])
			}
		}
		for k, v := range f.accMark {
			if v != 0 {
				t.Fatalf("after Load: accMark[%d] = %d", k, v)
			}
		}
		for j := in.nStruct; j < in.n; j++ {
			if in.cmin[j] != 0 {
				t.Fatalf("after Load: slack %d costs %v", j-in.nStruct, in.cmin[j])
			}
		}
		fresh, err := NewInstance(p)
		if err != nil {
			t.Fatal(err)
		}
		sameSolve(t, fmt.Sprintf("%d-row problem", in.m), in, fresh)
	}
}
