package main

import (
	"strings"
	"testing"
)

func TestParseNsPerOp(t *testing.T) {
	out := `goos: linux
BenchmarkMIPSolve-2               	    4011	    614857 ns/op	         1.000 nodes/solve	  678389 B/op	     305 allocs/op
BenchmarkTable1PolicyComparison 	       3	 899195329 ns/op
PASS
`
	got := parseNsPerOp(strings.NewReader(out))
	if got["BenchmarkMIPSolve"] != 614857 || got["BenchmarkTable1PolicyComparison"] != 899195329 || len(got) != 2 {
		t.Fatalf("parsed %v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.q1 != 2 || s.median != 3 || s.q3 != 4 {
		t.Fatalf("summary %+v, want q1 2, median 3, q3 4", s)
	}
	if s := summarize([]float64{1, 2, 3, 4}); s.median != 2.5 || s.q1 != 1.75 || s.q3 != 3.25 {
		t.Fatalf("even-count summary %+v", s)
	}
}

// TestSlowerNeedsBothConditions pins the gate: a slowdown fails only when
// the head median is past the bound and the two sides do not overlap.
func TestSlowerNeedsBothConditions(t *testing.T) {
	base := []float64{100, 102, 98, 101, 99}
	for _, c := range []struct {
		name string
		head []float64
		want bool
	}{
		{"clear slowdown", []float64{130, 131, 129, 135, 140}, true},
		{"faster", []float64{60, 61, 59, 62, 58}, false},
		{"within bound", []float64{120, 121, 119, 124, 122}, false},
		{"median past bound but one head run overlaps", []float64{130, 131, 101, 135, 140}, false},
		{"no overlap but median within bound", []float64{103, 104, 105, 125, 126}, false},
	} {
		if got := slower(base, c.head); got != c.want {
			t.Errorf("%s: slower = %v, want %v", c.name, got, c.want)
		}
	}
}
