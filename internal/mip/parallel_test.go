package mip

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/vbcloud/vb/internal/lp"
)

// TestNodeQueuePopOrder pins the deterministic pop order of the best-first
// queue: strictly ascending bound, and ascending node id within a bound
// tie, no matter what order nodes were pushed in.
func TestNodeQueuePopOrder(t *testing.T) {
	nodes := []*node{
		{bound: 2.5, id: 9},
		{bound: 1.0, id: 4},
		{bound: 1.0, id: 2},
		{bound: 1.0, id: 7},
		{bound: 0.5, id: 11},
		{bound: 2.5, id: 1},
		{bound: 1.0, id: 3},
	}
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		q := &nodeQueue{}
		for _, i := range rng.Perm(len(nodes)) {
			heap.Push(q, nodes[i])
		}
		var got []int64
		for q.Len() > 0 {
			got = append(got, heap.Pop(q).(*node).id)
		}
		want := []int64{11, 2, 3, 4, 7, 1, 9}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: pop order %v, want %v", trial, got, want)
		}
	}

	// Same contract for the reference oracle's queue.
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		q := &refQueue{}
		for _, i := range rng.Perm(len(nodes)) {
			n := nodes[i]
			heap.Push(q, &refNode{bound: n.bound, id: n.id})
		}
		var got []int64
		for q.Len() > 0 {
			got = append(got, heap.Pop(q).(*refNode).id)
		}
		want := []int64{11, 2, 3, 4, 7, 1, 9}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ref trial %d: pop order %v, want %v", trial, got, want)
		}
	}
}

// TestParallelDeterminism is the acceptance contract for parallel branch
// and bound: for any worker count >= 1 the Solution is bit-identical —
// same status, same objective bits, same X bits, same node and pivot
// counts — because node evaluation is a pure function of the node and
// results are consumed in deterministic (bound, id) order.
func TestParallelDeterminism(t *testing.T) {
	iters := 150
	if testing.Short() {
		iters = 30
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for s := 0; s < iters; s++ {
		rng := rand.New(rand.NewSource(int64(9_000_000 + s)))
		p := randomMIP(rng)
		var base Solution
		var baseErr error
		for wi, w := range workerCounts {
			got, err := Solve(p, Options{Workers: w})
			if wi == 0 {
				base, baseErr = got, err
				continue
			}
			if (err != nil) != (baseErr != nil) {
				t.Fatalf("seed %d: workers=%d error %v, workers=%d error %v", s, workerCounts[0], baseErr, w, err)
			}
			if err != nil {
				continue
			}
			if got.Status != base.Status || got.Proven != base.Proven ||
				got.Nodes != base.Nodes || got.Pivots != base.Pivots ||
				got.Refactors != base.Refactors {
				t.Fatalf("seed %d: workers=%d solution shape diverges from workers=1:\n%+v\nvs\n%+v", s, w, got, base)
			}
			if got.Objective != base.Objective {
				t.Fatalf("seed %d: workers=%d objective %v != %v (must be bit-identical)", s, w, got.Objective, base.Objective)
			}
			if len(got.X) != len(base.X) {
				t.Fatalf("seed %d: workers=%d len(X)=%d != %d", s, w, len(got.X), len(base.X))
			}
			for j := range got.X {
				if got.X[j] != base.X[j] {
					t.Fatalf("seed %d: workers=%d X[%d]=%v != %v (must be bit-identical)", s, w, j, got.X[j], base.X[j])
				}
			}
		}

		// The parallel result must also agree with the serial solver up to
		// alternate optima: same status, same proven objective.
		if baseErr != nil {
			continue
		}
		serial, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("seed %d: serial: %v", s, err)
		}
		if serial.Status != base.Status {
			t.Fatalf("seed %d: serial status %v, parallel %v", s, serial.Status, base.Status)
		}
		if serial.Status == lp.Optimal && serial.Proven && base.Proven {
			if math.Abs(serial.Objective-base.Objective) > 1e-6*(1+math.Abs(serial.Objective)) {
				t.Fatalf("seed %d: serial objective %.9g, parallel %.9g", s, serial.Objective, base.Objective)
			}
		}
	}
}

// TestParallelWarm checks that parallel search composes with warm state:
// the carried instance services the root solve and a follow-up identical
// solve still pops zero pivots at the root.
func TestParallelWarm(t *testing.T) {
	p := Problem{
		Problem: lp.Problem{
			NumVars:   3,
			Objective: []float64{5, 4, 3},
			Maximize:  true,
			Constraints: []lp.Constraint{
				{Coeffs: []float64{2, 3, 1}, Sense: lp.LE, RHS: 5},
				{Coeffs: []float64{4, 1, 2}, Sense: lp.LE, RHS: 11},
				{Coeffs: []float64{3, 4, 2}, Sense: lp.LE, RHS: 8},
			},
		},
		Integer: []bool{true, false, false},
	}
	warm := &WarmState{}
	first, err := Solve(p, Options{Warm: warm, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != lp.Optimal || first.WarmHit {
		t.Fatalf("first: status=%v warmHit=%v", first.Status, first.WarmHit)
	}
	second, err := Solve(p, Options{Warm: warm, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !second.WarmHit {
		t.Error("identical re-solve must hit the warm state")
	}
	if second.Objective != first.Objective {
		t.Errorf("warm objective %v != first %v", second.Objective, first.Objective)
	}
}
