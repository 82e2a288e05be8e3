package obs

import (
	"sort"
	"sync"
	"time"
)

// DefaultBuckets are the log-spaced histogram bucket upper bounds used when
// a histogram is created implicitly by Observe. They span 100 µs to 10 ks,
// which covers both timing spans (seconds) and per-step traffic (GB).
var DefaultBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
}

// histogram is a fixed-bucket histogram: counts[i] tallies observations v
// with v <= bounds[i] (and > bounds[i-1]); counts[len(bounds)] is overflow.
type histogram struct {
	bounds []float64
	counts []int64
	count  int64
	sum    float64
	min    float64
	max    float64
}

func newHistogram(bounds []float64) *histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// HistogramSnapshot is an immutable copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra overflow
	// bucket for observations above the last bound.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Mean returns the mean observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

func (h *histogram) snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
}

// Registry is a run-scoped metric store. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops), so instrumented code
// never needs to branch on whether observability is enabled.
type Registry struct {
	mu       sync.Mutex
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]*histogram
	labels   map[string]string
	cvecs    map[string]*CounterVec
	hvecs    map[string]*HistogramVec
	tracer   *Tracer
}

// NewRegistry returns an empty registry with an attached event tracer
// (default ring size).
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		hists:    map[string]*histogram{},
		labels:   map[string]string{},
		cvecs:    map[string]*CounterVec{},
		hvecs:    map[string]*HistogramVec{},
		tracer:   NewTracer(0),
	}
}

// Tracer returns the registry's event tracer (nil for a nil registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Emit forwards an event to the registry's tracer.
func (r *Registry) Emit(e Event) {
	if r == nil {
		return
	}
	r.tracer.Emit(e)
}

// Add adds delta to the named counter.
func (r *Registry) Add(name string, delta float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Inc increments the named counter by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Counter returns the named counter's value (0 when absent or nil).
func (r *Registry) Counter(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// SetGauge sets the named gauge to v.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Gauge returns the named gauge and whether it was ever set.
func (r *Registry) Gauge(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gauges[name]
	return v, ok
}

// NewHistogram pre-registers a histogram with custom bucket bounds. It is
// optional: Observe creates missing histograms with DefaultBuckets.
func (r *Registry) NewHistogram(name string, bounds []float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if _, ok := r.hists[name]; !ok {
		r.hists[name] = newHistogram(bounds)
	}
	r.mu.Unlock()
}

// Observe records v into the named histogram, creating it with
// DefaultBuckets when absent.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(DefaultBuckets)
		r.hists[name] = h
	}
	h.observe(v)
	r.mu.Unlock()
}

// ObserveDuration records d (in seconds) into the named histogram.
func (r *Registry) ObserveDuration(name string, d time.Duration) {
	r.Observe(name, d.Seconds())
}

// Histogram returns a snapshot of the named histogram.
func (r *Registry) Histogram(name string) (HistogramSnapshot, bool) {
	if r == nil {
		return HistogramSnapshot{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		return HistogramSnapshot{}, false
	}
	return h.snapshot(), true
}

// SetLabel attaches a string label (e.g. "policy" = "MIP") to the run.
func (r *Registry) SetLabel(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.labels[key] = value
	r.mu.Unlock()
}

// nop is the shared no-op span so Time(nil, ...) allocates nothing.
var nop = func() {}

// Time starts a timing span: the returned func records the elapsed
// wall-clock time into the registry histogram of the given name (seconds).
// With a nil registry it neither reads the clock nor allocates.
//
//	defer obs.Time(reg, "mip.solve")()
func Time(r *Registry, name string) func() {
	if r == nil {
		return nop
	}
	start := time.Now()
	return func() { r.ObserveDuration(name, time.Since(start)) }
}
