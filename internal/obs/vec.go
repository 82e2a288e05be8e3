package obs

// Dimensional metrics: CounterVec and HistogramVec carry an ordered
// label-name set fixed at creation (e.g. policy, site, app, class)
// and one time series per label-value tuple, so per-site / per-app / per-
// class breakdowns come out of the registry instead of being re-derived by
// every experiment.
//
// Design notes, mirroring the flat Registry metrics:
//
//   - nil-safe: every method on a nil vec is a no-op (and allocates
//     nothing), so instrumented code never branches on whether
//     observability is enabled;
//   - lock-striped: a vec shards its series over vecStripes independently
//     locked maps keyed by an FNV-1a hash of the series key, so concurrent
//     writers on different label tuples rarely contend;
//   - label encoding: a series key is the label values joined with the
//     ASCII unit separator 0x1f, which cannot appear in the site indices,
//     app IDs, policy names and class names used as values. Snapshots
//     split the key back into the value tuple.

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// vecStripes is the lock-stripe count of each vec. Sixteen stripes keep the
// per-stripe maps small and let up to sixteen writers with distinct label
// tuples proceed without contention.
const vecStripes = 16

// vecSep joins label values into a series key (ASCII unit separator).
const vecSep = "\x1f"

// vecKey encodes a label-value tuple as a series key.
func vecKey(values []string) string {
	if len(values) == 1 {
		return values[0]
	}
	return strings.Join(values, vecSep)
}

// splitVecKey decodes a series key back into its label-value tuple.
func splitVecKey(key string, n int) []string {
	if n <= 1 {
		return []string{key}
	}
	return strings.SplitN(key, vecSep, n)
}

// stripeOf hashes a series key to a stripe index (FNV-1a).
func stripeOf(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % vecStripes)
}

// valueStripe is one lock-striped shard of scalar series.
type valueStripe struct {
	mu   sync.Mutex
	vals map[string]float64
}

func (s *valueStripe) add(key string, delta float64) {
	s.mu.Lock()
	if s.vals == nil {
		s.vals = make(map[string]float64)
	}
	s.vals[key] += delta
	s.mu.Unlock()
}

func (s *valueStripe) get(key string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[key]
}

// CounterVec is a monotonically accumulating metric with one value per
// label tuple. All methods are safe for concurrent use and safe on a nil
// receiver.
type CounterVec struct {
	name    string
	labels  []string
	stripes [vecStripes]valueStripe
}

// Name returns the vec's metric name ("" for nil).
func (v *CounterVec) Name() string {
	if v == nil {
		return ""
	}
	return v.name
}

// LabelNames returns the ordered label names (nil for a nil vec).
func (v *CounterVec) LabelNames() []string {
	if v == nil {
		return nil
	}
	return append([]string(nil), v.labels...)
}

// Add adds delta to the series of the given label values. Calls with the
// wrong number of label values are dropped.
func (v *CounterVec) Add(delta float64, labelValues ...string) {
	if v == nil || len(labelValues) != len(v.labels) {
		return
	}
	k := vecKey(labelValues)
	v.stripes[stripeOf(k)].add(k, delta)
}

// Inc increments the series of the given label values by one.
func (v *CounterVec) Inc(labelValues ...string) { v.Add(1, labelValues...) }

// Value returns the series value (0 when absent or nil).
func (v *CounterVec) Value(labelValues ...string) float64 {
	if v == nil || len(labelValues) != len(v.labels) {
		return 0
	}
	k := vecKey(labelValues)
	return v.stripes[stripeOf(k)].get(k)
}

// Snapshot returns every series, sorted by label values for determinism.
func (v *CounterVec) Snapshot() VecSnapshot {
	if v == nil {
		return VecSnapshot{}
	}
	return VecSnapshot{LabelNames: v.LabelNames(), Values: snapshotValues(&v.stripes, len(v.labels))}
}

// histStripe is one lock-striped shard of histogram series.
type histStripe struct {
	mu    sync.Mutex
	hists map[string]*histogram
}

// HistogramVec is a fixed-bucket histogram with one histogram per label
// tuple. All methods are safe for concurrent use and safe on a nil
// receiver.
type HistogramVec struct {
	name    string
	labels  []string
	bounds  []float64
	stripes [vecStripes]histStripe
}

// Name returns the vec's metric name ("" for nil).
func (v *HistogramVec) Name() string {
	if v == nil {
		return ""
	}
	return v.name
}

// LabelNames returns the ordered label names (nil for a nil vec).
func (v *HistogramVec) LabelNames() []string {
	if v == nil {
		return nil
	}
	return append([]string(nil), v.labels...)
}

// Observe records val into the series of the given label values. Calls
// with the wrong number of label values are dropped.
func (v *HistogramVec) Observe(val float64, labelValues ...string) {
	if v == nil || len(labelValues) != len(v.labels) {
		return
	}
	k := vecKey(labelValues)
	s := &v.stripes[stripeOf(k)]
	s.mu.Lock()
	h, ok := s.hists[k]
	if !ok {
		if s.hists == nil {
			s.hists = make(map[string]*histogram)
		}
		h = newHistogram(v.bounds)
		s.hists[k] = h
	}
	h.observe(val)
	s.mu.Unlock()
}

// ObserveDuration records d (in seconds) into the series.
func (v *HistogramVec) ObserveDuration(d time.Duration, labelValues ...string) {
	if v == nil {
		return
	}
	v.Observe(d.Seconds(), labelValues...)
}

// SeriesSnapshot returns the snapshot of one series and whether it exists.
func (v *HistogramVec) SeriesSnapshot(labelValues ...string) (HistogramSnapshot, bool) {
	if v == nil || len(labelValues) != len(v.labels) {
		return HistogramSnapshot{}, false
	}
	k := vecKey(labelValues)
	s := &v.stripes[stripeOf(k)]
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hists[k]
	if !ok {
		return HistogramSnapshot{}, false
	}
	return h.snapshot(), true
}

// Snapshot returns every series, sorted by label values for determinism.
func (v *HistogramVec) Snapshot() VecSnapshot {
	if v == nil {
		return VecSnapshot{}
	}
	out := VecSnapshot{LabelNames: v.LabelNames()}
	for i := range v.stripes {
		s := &v.stripes[i]
		s.mu.Lock()
		for k, h := range s.hists {
			out.Histograms = append(out.Histograms, LabeledHistogram{
				Labels: splitVecKey(k, len(v.labels)),
				Hist:   h.snapshot(),
			})
		}
		s.mu.Unlock()
	}
	sort.Slice(out.Histograms, func(i, j int) bool {
		return lessLabels(out.Histograms[i].Labels, out.Histograms[j].Labels)
	})
	return out
}

// snapshotValues collects and sorts the scalar series of a striped vec.
func snapshotValues(stripes *[vecStripes]valueStripe, labels int) []LabeledValue {
	var out []LabeledValue
	for i := range stripes {
		s := &stripes[i]
		s.mu.Lock()
		for k, val := range s.vals {
			out = append(out, LabeledValue{Labels: splitVecKey(k, labels), Value: val})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return lessLabels(out[i].Labels, out[j].Labels) })
	return out
}

// lessLabels orders label-value tuples lexicographically.
func lessLabels(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// LabeledValue is one scalar series of a vec snapshot.
type LabeledValue struct {
	Labels []string `json:"labels"`
	Value  float64  `json:"value"`
}

// LabeledHistogram is one histogram series of a vec snapshot.
type LabeledHistogram struct {
	Labels []string          `json:"labels"`
	Hist   HistogramSnapshot `json:"hist"`
}

// VecSnapshot is an immutable copy of one vec's series, sorted by label
// values. Values is set for counter/gauge vecs, Histograms for histogram
// vecs.
type VecSnapshot struct {
	LabelNames []string           `json:"label_names"`
	Values     []LabeledValue     `json:"values,omitempty"`
	Histograms []LabeledHistogram `json:"histograms,omitempty"`
}

// NewCounterVec returns the registry's counter vec of the given name,
// creating it with the ordered label names on first use. A nil registry
// returns a nil (no-op) vec. The label names of an existing vec win.
func (r *Registry) NewCounterVec(name string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.cvecs[name]; ok {
		return v
	}
	v := &CounterVec{name: name, labels: append([]string(nil), labelNames...)}
	r.cvecs[name] = v
	return v
}

// NewHistogramVec returns the registry's histogram vec of the given name,
// creating it with the bucket bounds (nil = DefaultBuckets) and ordered
// label names on first use. A nil registry returns a nil (no-op) vec.
func (r *Registry) NewHistogramVec(name string, bounds []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefaultBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.hvecs[name]; ok {
		return v
	}
	v := &HistogramVec{
		name:   name,
		labels: append([]string(nil), labelNames...),
		bounds: append([]float64(nil), bounds...),
	}
	r.hvecs[name] = v
	return v
}
