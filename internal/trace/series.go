// Package trace provides the time-series substrate used throughout the
// Virtual Battery simulator: regularly sampled series, window operations,
// arithmetic, and CSV/JSON interchange.
//
// A Series is the common currency between the energy models (normalized
// power), the forecaster (predicted power), the cluster simulator (migration
// bytes per interval) and the statistics layer.
package trace

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Common errors returned by Series operations.
var (
	ErrEmptySeries    = errors.New("trace: empty series")
	ErrStepMismatch   = errors.New("trace: series step mismatch")
	ErrLengthMismatch = errors.New("trace: series length mismatch")
	ErrBadWindow      = errors.New("trace: window does not divide series")
	ErrBadStep        = errors.New("trace: non-positive step")
)

// Series is a regularly sampled time series. The i-th sample covers the
// half-open interval [Start+i*Step, Start+(i+1)*Step).
//
// The zero value is an empty series; most operations on it return
// ErrEmptySeries rather than panicking.
type Series struct {
	// Start is the timestamp of the first sample.
	Start time.Time
	// Step is the sampling interval. It must be positive for a non-empty
	// series.
	Step time.Duration
	// Values holds one sample per interval.
	Values []float64
}

// New returns a Series with the given start, step and a zero-filled value
// slice of length n.
func New(start time.Time, step time.Duration, n int) Series {
	return Series{Start: start, Step: step, Values: make([]float64, n)}
}

// FromValues returns a Series wrapping vals (not copied).
func FromValues(start time.Time, step time.Duration, vals []float64) Series {
	return Series{Start: start, Step: step, Values: vals}
}

// Len returns the number of samples.
func (s Series) Len() int { return len(s.Values) }

// IsEmpty reports whether the series has no samples.
func (s Series) IsEmpty() bool { return len(s.Values) == 0 }

// End returns the timestamp just past the final sample's interval.
func (s Series) End() time.Time {
	return s.Start.Add(time.Duration(len(s.Values)) * s.Step)
}

// Duration returns the total time covered by the series.
func (s Series) Duration() time.Duration {
	return time.Duration(len(s.Values)) * s.Step
}

// TimeAt returns the timestamp of sample i.
func (s Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Step)
}

// IndexAt returns the sample index whose interval contains t, or -1 if t is
// outside the series.
func (s Series) IndexAt(t time.Time) int {
	if s.IsEmpty() || s.Step <= 0 {
		return -1
	}
	d := t.Sub(s.Start)
	if d < 0 {
		return -1
	}
	i := int(d / s.Step)
	if i >= len(s.Values) {
		return -1
	}
	return i
}

// At returns the value of the interval containing t and true, or 0 and false
// if t falls outside the series.
func (s Series) At(t time.Time) (float64, bool) {
	i := s.IndexAt(t)
	if i < 0 {
		return 0, false
	}
	return s.Values[i], true
}

// Clone returns a deep copy of the series.
func (s Series) Clone() Series {
	out := s
	out.Values = append([]float64(nil), s.Values...)
	return out
}

// Slice returns the sub-series of samples [i, j). It shares the underlying
// array with s.
func (s Series) Slice(i, j int) Series {
	return Series{
		Start:  s.TimeAt(i),
		Step:   s.Step,
		Values: s.Values[i:j],
	}
}

// Window returns the sub-series covering [from, to). Both bounds are clamped
// to the series extent. The result shares storage with s.
func (s Series) Window(from, to time.Time) Series {
	if s.IsEmpty() {
		return Series{Start: from, Step: s.Step}
	}
	i := 0
	if d := from.Sub(s.Start); d > 0 {
		i = int(d / s.Step)
	}
	j := len(s.Values)
	if d := to.Sub(s.Start); d >= 0 {
		if k := int((d + s.Step - 1) / s.Step); k < j {
			j = k
		}
	} else {
		j = 0
	}
	if i > j {
		i = j
	}
	return s.Slice(i, j)
}

// Scale returns a new series with every value multiplied by f.
func (s Series) Scale(f float64) Series {
	out := s.Clone()
	for i := range out.Values {
		out.Values[i] *= f
	}
	return out
}

// Shift returns a new series with c added to every value.
func (s Series) Shift(c float64) Series {
	out := s.Clone()
	for i := range out.Values {
		out.Values[i] += c
	}
	return out
}

// Clamp returns a new series with every value limited to [lo, hi].
func (s Series) Clamp(lo, hi float64) Series {
	out := s.Clone()
	for i, v := range out.Values {
		if v < lo {
			out.Values[i] = lo
		} else if v > hi {
			out.Values[i] = hi
		}
	}
	return out
}

// Add returns the element-wise sum of s and t. The two series must have the
// same step and length; the result adopts s's start time.
func Add(s, t Series) (Series, error) {
	if err := compatible(s, t); err != nil {
		return Series{}, err
	}
	out := s.Clone()
	for i := range out.Values {
		out.Values[i] += t.Values[i]
	}
	return out, nil
}

// Sum returns the element-wise sum of all the given series, which must be
// pairwise compatible. It returns ErrEmptySeries when called with no series.
func Sum(series ...Series) (Series, error) {
	if len(series) == 0 {
		return Series{}, ErrEmptySeries
	}
	out := series[0].Clone()
	for _, t := range series[1:] {
		if err := compatible(out, t); err != nil {
			return Series{}, err
		}
		for i := range out.Values {
			out.Values[i] += t.Values[i]
		}
	}
	return out, nil
}

func compatible(s, t Series) error {
	if s.Step != t.Step {
		return fmt.Errorf("%w: %v vs %v", ErrStepMismatch, s.Step, t.Step)
	}
	if len(s.Values) != len(t.Values) {
		return fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(s.Values), len(t.Values))
	}
	return nil
}

// Total returns the sum of all values.
func (s Series) Total() float64 {
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum
}

// Mean returns the arithmetic mean of the values, or 0 for an empty series.
func (s Series) Mean() float64 {
	if s.IsEmpty() {
		return 0
	}
	return s.Total() / float64(len(s.Values))
}

// Min returns the minimum value, or +Inf for an empty series.
func (s Series) Min() float64 {
	m := math.Inf(1)
	for _, v := range s.Values {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum value, or -Inf for an empty series.
func (s Series) Max() float64 {
	m := math.Inf(-1)
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// Energy integrates the series over time: sum(value_i * Step), with Step
// expressed in hours. For a series of megawatt samples this yields MWh.
func (s Series) Energy() float64 {
	return s.Total() * s.Step.Hours()
}

// WindowMin returns a series of per-window minima. The window must be a
// positive multiple of Step, and the series length must be a multiple of the
// window size; otherwise ErrBadWindow is returned. The result has one sample
// per window with step == window.
func (s Series) WindowMin(window time.Duration) (Series, error) {
	if s.Step <= 0 || window <= 0 {
		return Series{}, ErrBadStep
	}
	if window%s.Step != 0 {
		return Series{}, fmt.Errorf("%w: window %v step %v", ErrBadWindow, window, s.Step)
	}
	k := int(window / s.Step)
	if k == 0 || s.Len()%k != 0 {
		return Series{}, fmt.Errorf("%w: len %d window samples %d", ErrBadWindow, s.Len(), k)
	}
	n := s.Len() / k
	out := New(s.Start, window, n)
	for i := 0; i < n; i++ {
		m := math.Inf(1)
		for _, v := range s.Values[i*k : (i+1)*k] {
			if v < m {
				m = v
			}
		}
		out.Values[i] = m
	}
	return out, nil
}

// Lag returns the series shifted by k samples: positive k delays the series
// (sample i takes the value of sample i-k); leading samples repeat the
// first value. Negative k advances it symmetrically.
func (s Series) Lag(k int) Series {
	out := s.Clone()
	n := s.Len()
	if n == 0 || k == 0 {
		return out
	}
	for i := 0; i < n; i++ {
		j := i - k
		if j < 0 {
			j = 0
		}
		if j >= n {
			j = n - 1
		}
		out.Values[i] = s.Values[j]
	}
	return out
}

// CountIf returns the number of samples for which pred is true.
func (s Series) CountIf(pred func(float64) bool) int {
	n := 0
	for _, v := range s.Values {
		if pred(v) {
			n++
		}
	}
	return n
}

// FractionZero returns the fraction of samples equal to zero (within eps).
func (s Series) FractionZero(eps float64) float64 {
	if s.IsEmpty() {
		return 0
	}
	n := s.CountIf(func(v float64) bool { return math.Abs(v) <= eps })
	return float64(n) / float64(s.Len())
}

// NonZero returns the values strictly greater than eps in magnitude, in
// order. Useful for "CDF of non-zero overhead" style plots.
func (s Series) NonZero(eps float64) []float64 {
	out := make([]float64, 0, s.Len())
	for _, v := range s.Values {
		if math.Abs(v) > eps {
			out = append(out, v)
		}
	}
	return out
}

// String implements fmt.Stringer with a compact summary.
func (s Series) String() string {
	if s.IsEmpty() {
		return "Series(empty)"
	}
	return fmt.Sprintf("Series(n=%d step=%v start=%s mean=%.4g)",
		s.Len(), s.Step, s.Start.Format(time.RFC3339), s.Mean())
}
