package mip

import (
	"fmt"
	"math"
	"testing"

	"github.com/vbcloud/vb/internal/lp"
)

// TestGoldenObjectives pins the optimal objective of a family of
// deterministic site-selection-shaped MIPs. Every path must reproduce each
// value to 1e-6: the serial and parallel bounds-branching searches because
// they are the production paths, and the row-branching reference oracle
// because it anchors the values to the pre-rewrite implementation. A
// pivoting or warm-start regression that lands on a wrong vertex shows up
// here as a changed objective even when feasibility checks still pass.
//
// The production paths are also pinned exactly: their node, pivot and
// refactorization counts repeat from run to run, so a change to either
// search — a reordered loop, a different warm start, a new pivot rule —
// fails here even when it reaches the same optimum.
func TestGoldenObjectives(t *testing.T) {
	for seed, want := range goldenObjectives {
		p := benchMIP(24, 6, 30, seed)
		paths := goldenPaths[seed]
		for _, c := range []struct {
			name  string
			solve func() (Solution, error)
			path  *searchPath // nil: counts not pinned
		}{
			{"revised", func() (Solution, error) { return Solve(p, Options{MaxNodes: 4000}) }, &paths.serial},
			{"workers=2", func() (Solution, error) { return Solve(p, Options{MaxNodes: 4000, Workers: 2}) }, &paths.workers2},
			{"reference", func() (Solution, error) { return solveReference(p, Options{MaxNodes: 4000}) }, nil},
		} {
			sol, err := c.solve()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.name, err)
			}
			if sol.Status != lp.Optimal || !sol.Proven {
				t.Fatalf("seed %d %s: status %v proven %v", seed, c.name, sol.Status, sol.Proven)
			}
			if math.Abs(sol.Objective-want) > 1e-6*(1+math.Abs(want)) {
				t.Errorf("seed %d %s: objective %.9f, golden %.9f", seed, c.name, sol.Objective, want)
			}
			if c.path != nil {
				if got := (searchPath{sol.Nodes, sol.Pivots, sol.Refactors}); got != *c.path {
					t.Errorf("seed %d %s: nodes/pivots/refactors %v, golden %v", seed, c.name, got, *c.path)
				}
			}
		}
	}
}

// goldenObjectives holds the proven optima for benchMIP(24, 6, 30, seed).
var goldenObjectives = map[int64]float64{
	1: 247.477788387,
	2: 160.459746127,
	3: 264.280699194,
	4: 116.275262890,
	5: 196.217290434,
	6: 216.670293069,
	7: 128.168540776,
	8: 152.542190760,
}

// searchPath is one branch-and-bound run's node, pivot and refactorization
// counts.
type searchPath struct {
	nodes     int
	pivots    int64
	refactors int64
}

// goldenPaths holds the search-path counts of the serial search and of
// Workers: 2 for benchMIP(24, 6, 30, seed) at MaxNodes 4000.
var goldenPaths = map[int64]struct{ serial, workers2 searchPath }{
	1: {searchPath{9, 102, 1}, searchPath{9, 102, 0}},
	2: {searchPath{3, 39, 0}, searchPath{3, 39, 0}},
	3: {searchPath{7, 78, 1}, searchPath{7, 58, 0}},
	4: {searchPath{3, 52, 0}, searchPath{3, 43, 0}},
	5: {searchPath{3, 39, 0}, searchPath{3, 35, 0}},
	6: {searchPath{7, 44, 0}, searchPath{7, 52, 0}},
	7: {searchPath{5, 51, 0}, searchPath{5, 51, 0}},
	8: {searchPath{3, 36, 0}, searchPath{3, 29, 0}},
}

// TestGoldenObjectivesPrint regenerates the golden tables: the objectives
// from the reference oracle and the search paths from the production
// solver. It skips itself while the tables are populated: empty them and
// run it to print replacement values when the fixture generator changes.
func TestGoldenObjectivesPrint(t *testing.T) {
	if len(goldenObjectives) != 0 && len(goldenPaths) != 0 {
		t.Skip("golden tables populated")
	}
	for seed := int64(1); seed <= 8; seed++ {
		p := benchMIP(24, 6, 30, seed)
		ref, err := solveReference(p, Options{MaxNodes: 4000})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := Solve(p, Options{MaxNodes: 4000})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Solve(p, Options{MaxNodes: 4000, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("\t%d: %.9f, // {searchPath{%d, %d, %d}, searchPath{%d, %d, %d}}\n", seed, ref.Objective,
			serial.Nodes, serial.Pivots, serial.Refactors, par.Nodes, par.Pivots, par.Refactors)
	}
}
