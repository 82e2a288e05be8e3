// Package stats provides the descriptive statistics used across the Virtual
// Battery evaluation: percentiles, empirical CDFs, coefficient of variation,
// forecast error metrics, and summary tables.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by operations that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than one
// sample.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CoV returns the coefficient of variation (standard deviation divided by
// mean). It returns +Inf when the mean is zero but the deviation is not, and
// 0 when both are zero. The paper uses cov as its variability metric (§2.3).
func CoV(xs []float64) float64 {
	m := Mean(xs)
	sd := StdDev(xs)
	if m == 0 {
		if sd == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return sd / math.Abs(m)
}

// percentileSorted computes a percentile assuming xs is sorted ascending and
// non-empty.
func percentileSorted(xs []float64, p float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// Quantiles returns the given percentiles of xs in one sorting pass.
func Quantiles(xs []float64, ps ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 100 {
			return nil, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
		}
		out[i] = percentileSorted(sorted, p)
	}
	return out, nil
}

// Summary holds the descriptive statistics reported in the paper's Table 1.
type Summary struct {
	N     int     // number of samples
	Total float64 // sum
	Mean  float64
	Std   float64 // population standard deviation
	Min   float64
	P50   float64
	P90   float64
	P99   float64
	Max   float64 // the paper's "Peak"
}

// Summarize computes a Summary of xs. It returns ErrEmpty for empty input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var total float64
	for _, x := range sorted {
		total += x
	}
	return Summary{
		N:     len(sorted),
		Total: total,
		Mean:  total / float64(len(sorted)),
		Std:   StdDev(sorted),
		Min:   sorted[0],
		P50:   percentileSorted(sorted, 50),
		P90:   percentileSorted(sorted, 90),
		P99:   percentileSorted(sorted, 99),
		Max:   sorted[len(sorted)-1],
	}, nil
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d total=%.4g mean=%.4g std=%.4g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
		s.N, s.Total, s.Mean, s.Std, s.Min, s.P50, s.P90, s.P99, s.Max)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	xs []float64 // sorted ascending
}

// NewCDF builds an empirical CDF from samples. It returns ErrEmpty for empty
// input.
func NewCDF(samples []float64) (*CDF, error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return &CDF{xs: xs}, nil
}

// N returns the number of underlying samples.
func (c *CDF) N() int { return len(c.xs) }

// P returns the empirical probability P(X <= x).
func (c *CDF) P(x float64) float64 {
	// Index of first element > x.
	i := sort.Search(len(c.xs), func(i int) bool { return c.xs[i] > x })
	return float64(i) / float64(len(c.xs))
}

// Quantile returns the q-th quantile for q in [0, 1], clamping q outside the
// range.
func (c *CDF) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return percentileSorted(c.xs, q*100)
}

// Points returns up to n (x, P(X<=x)) pairs evenly spaced across the sample
// range, suitable for plotting. n < 2 is treated as 2.
func (c *CDF) Points(n int) []Point {
	if n < 2 {
		n = 2
	}
	out := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		x := c.Quantile(q)
		out = append(out, Point{X: x, Y: c.P(x)})
	}
	return out
}

// Point is a single (x, y) plot coordinate.
type Point struct{ X, Y float64 }

// MAPE returns the mean absolute percentage error between forecast and
// actual, computed over samples where |actual| > floor. This matches how the
// ELIA forecast errors are reported (§3.1): samples at or near zero actual
// production (e.g., solar at night) are excluded, since a percentage error is
// undefined there. It returns ErrEmpty if no sample passes the floor.
func MAPE(forecast, actual []float64, floor float64) (float64, error) {
	if len(forecast) != len(actual) {
		return 0, fmt.Errorf("stats: MAPE length mismatch %d vs %d", len(forecast), len(actual))
	}
	var sum float64
	n := 0
	for i := range actual {
		if math.Abs(actual[i]) <= floor {
			continue
		}
		sum += math.Abs(forecast[i]-actual[i]) / math.Abs(actual[i])
		n++
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	return sum / float64(n) * 100, nil
}

// Pearson returns the Pearson correlation coefficient of xs and ys. It
// returns 0 when either input has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: correlation length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Ratio returns a/b, or +Inf when b is zero and a is not, or 1 when both are
// zero. Used for the paper's p99/p75 and p99/p50 spread ratios.
func Ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return a / b
}

// KolmogorovSmirnov returns the two-sample KS statistic: the maximum
// absolute difference between the empirical CDFs of xs and ys. Used to
// check distributional stability of the synthetic energy models across
// seeds and seasons.
func KolmogorovSmirnov(xs, ys []float64) (float64, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return 0, ErrEmpty
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		var v float64
		if a[i] <= b[j] {
			v = a[i]
			for i < len(a) && a[i] <= v {
				i++
			}
		} else {
			v = b[j]
		}
		for j < len(b) && b[j] <= v {
			j++
		}
		fa := float64(i) / float64(len(a))
		fb := float64(j) / float64(len(b))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d, nil
}
