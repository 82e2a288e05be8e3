package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p95 from 40 samples rests on two observations, which is noise.
const minTail = 10

// tailLadder lists the percentiles Summarize tries, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// Dist summarises a timing sample: its size, its median, and the highest
// percentile from tailLadder with at least minTail samples beyond it.
type Dist struct {
	N      int
	Median float64
	// TopP is that percentile and TopV its value; TopP is 0 (unresolved)
	// when the sample is too small for even the median to have minTail
	// samples beyond it.
	TopP float64
	TopV float64
}

// Summarize builds the Dist of xs; xs is not modified.
func Summarize(xs []float64) Dist {
	d := Dist{N: len(xs), Median: median(xs)}
	for _, p := range tailLadder {
		if v, ok := Percentile(xs, p); ok {
			d.TopP, d.TopV = p, v
			break
		}
	}
	return d
}

// Percentile returns the nearest-rank p-th percentile of xs and whether it
// is resolved, that is, whether at least minTail samples lie beyond it.
func Percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return s[k-1], n-k >= minTail
}

// median returns the middle value of xs, averaging the two middle values
// of an even-sized sample (NaN when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method,
// which extrapolates for tiny samples), so spreads computed here match
// ones computed in Python from the printed values. A single sample has
// zero spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
