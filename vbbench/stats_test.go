package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileResolution(t *testing.T) {
	// p95 needs ten samples beyond it: resolved at n=200, not at n=199.
	if v, ok := Percentile(seq(200), 95); !ok || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190, resolved", v, ok)
	}
	if _, ok := Percentile(seq(199), 95); ok {
		t.Fatal("p95 of 199 samples must be unresolved")
	}
	if _, ok := Percentile(nil, 50); ok {
		t.Fatal("percentile of an empty sample must be unresolved")
	}
}

func TestSummarizePicksHighestResolvedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		topP float64
	}{
		{1000, 99}, // 99.9 leaves one sample beyond
		{200, 95},
		{100, 90},
		{40, 75},
		{20, 50},
		{19, 0}, // even the median has only nine beyond: unresolved
	}
	for _, c := range cases {
		d := Summarize(seq(c.n))
		if d.N != c.n || d.TopP != c.topP {
			t.Errorf("n=%d: got N=%d TopP=%v, want TopP=%v", c.n, d.N, d.TopP, c.topP)
		}
	}
	if d := Summarize([]float64{3, 1, 2, 4}); d.Median != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", d.Median)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1, 4, 1, 5}, 1, 4.5},
		{seq(10), 2.75, 8.25},
		{[]float64{0.5, 0.7, 0.2, 0.9, 1.1, 0.3, 0.8, 0.4, 0.6, 1.0, 2.0}, 0.4, 1.0},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread(seq(10)); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", s)
	}
}
