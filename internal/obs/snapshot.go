package obs

// RegistrySnapshot is a single serializable copy of everything a Registry
// holds: run labels, flat counters/gauges/histograms, every dimensional
// vec, and the tracer's exact per-event-type totals. It is the payload of
// the exposition layer's /snapshot endpoint and the body of the Manifest
// the CLIs write.
type RegistrySnapshot struct {
	Labels     map[string]string            `json:"labels,omitempty"`
	Counters   map[string]float64           `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// CounterVecs holds the dimensional metrics, keyed by vec name; each
	// VecSnapshot's series are sorted by label values, so serialized
	// snapshots are deterministic.
	CounterVecs map[string]VecSnapshot `json:"counter_vecs,omitempty"`
	// Events aggregates per-event-type counts and exact GB/core totals.
	Events map[EventType]TypeStats `json:"events,omitempty"`
}

// Snapshot copies the whole registry — flat metrics, every vec, and the
// tracer's per-type stats — into one serializable struct. A nil registry
// yields a zero snapshot.
//
// Vec snapshots are taken after the registry lock is released: each vec
// has its own lock, and writers take only that one, so no path ever holds
// both.
func (r *Registry) Snapshot() RegistrySnapshot {
	if r == nil {
		return RegistrySnapshot{}
	}
	r.mu.Lock()
	s := RegistrySnapshot{
		Labels:     make(map[string]string, len(r.labels)),
		Counters:   make(map[string]float64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for k, v := range r.labels {
		s.Labels[k] = v
	}
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.snapshot()
	}
	cvecs := make([]*CounterVec, 0, len(r.cvecs))
	for _, v := range r.cvecs {
		cvecs = append(cvecs, v)
	}
	tr := r.tracer
	r.mu.Unlock()

	if len(cvecs) > 0 {
		s.CounterVecs = make(map[string]VecSnapshot, len(cvecs))
		for _, v := range cvecs {
			s.CounterVecs[v.name] = v.Snapshot()
		}
	}
	s.Events = tr.AllStats()
	return s
}
