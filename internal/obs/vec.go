package obs

// Dimensional metrics: a CounterVec carries an ordered label-name set fixed
// at creation (e.g. policy, site, class) and one series per label-value
// tuple, so per-site and per-class breakdowns come out of the registry
// instead of being re-derived by every experiment. Every label takes values
// from a set fixed by the run (policies, sites, SLO classes, fallback tiers,
// fault kinds, traffic directions), never from the open-ended app stream,
// so a vec holds a few dozen series at most.
//
// Design notes, mirroring the flat Registry metrics:
//
//   - nil-safe: every method on a nil vec is a no-op (and allocates
//     nothing), so instrumented code never branches on whether
//     observability is enabled;
//   - one lock and one map per vec, keyed by a fixed-size label tuple:
//     recording into an existing series joins no strings and allocates
//     nothing, and label values need no reserved separator byte.

import (
	"sort"
	"sync"
)

// maxVecLabels bounds a vec's label count: the width of its series key.
const maxVecLabels = 3

// labelTuple keys a series: its label values, padded with "".
type labelTuple [maxVecLabels]string

// CounterVec is a monotonically accumulating metric with one value per
// label tuple. All methods are safe for concurrent use and safe on a nil
// receiver.
type CounterVec struct {
	name   string
	labels []string
	mu     sync.Mutex
	vals   map[labelTuple]float64
}

// key packs label values into a series key; ok is false when their count
// does not match the vec's label names.
func (v *CounterVec) key(labelValues []string) (k labelTuple, ok bool) {
	if len(labelValues) != len(v.labels) {
		return k, false
	}
	copy(k[:], labelValues)
	return k, true
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
	if v == nil {
		return
	}
	k, ok := v.key(labelValues)
	if !ok {
		return
	}
	v.mu.Lock()
	v.vals[k] += delta
	v.mu.Unlock()
}

// Inc increments the series of the given label values by one.
func (v *CounterVec) Inc(labelValues ...string) { v.Add(1, labelValues...) }

// Value returns the series value (0 when absent or nil).
func (v *CounterVec) Value(labelValues ...string) float64 {
	if v == nil {
		return 0
	}
	k, ok := v.key(labelValues)
	if !ok {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.vals[k]
}

// Snapshot returns every series, sorted by label values for determinism.
func (v *CounterVec) Snapshot() VecSnapshot {
	if v == nil {
		return VecSnapshot{}
	}
	n := len(v.labels)
	var out []LabeledValue
	v.mu.Lock()
	for k, val := range v.vals {
		out = append(out, LabeledValue{Labels: append([]string(nil), k[:n]...), Value: val})
	}
	v.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return lessLabels(out[i].Labels, out[j].Labels) })
	return VecSnapshot{LabelNames: v.LabelNames(), Values: out}
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

// LabeledValue is one series of a vec snapshot.
type LabeledValue struct {
	Labels []string `json:"labels"`
	Value  float64  `json:"value"`
}

// VecSnapshot is an immutable copy of one vec's series, sorted by label
// values.
type VecSnapshot struct {
	LabelNames []string       `json:"label_names"`
	Values     []LabeledValue `json:"values,omitempty"`
}

// NewCounterVec returns the registry's counter vec of the given name,
// creating it with the ordered label names on first use. A nil registry
// returns a nil (no-op) vec. The label names of an existing vec win. It
// panics when given more than three label names.
func (r *Registry) NewCounterVec(name string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	if len(labelNames) > maxVecLabels {
		panic("obs: counter vec " + name + " has more than three labels")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.cvecs[name]; ok {
		return v
	}
	v := &CounterVec{name: name, labels: append([]string(nil), labelNames...), vals: map[labelTuple]float64{}}
	r.cvecs[name] = v
	return v
}
