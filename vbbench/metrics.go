package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef is one end-to-end metric: how it is measured and by how much it
// may worsen (as a share of the parent's median) before a change counts as a
// regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// commonMetrics are the end-to-end metrics every workload reports. They are
// the ones BENCHMARK.json lists: every run must report every metric listed
// there, so a metric only one workload has cannot be listed.
var commonMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.2},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// serveMetrics are serve-replay's client-side latencies. They are printed
// with the common metrics and judged by the compare mode with these bounds.
var serveMetrics = []metricDef{
	{"step_p50_ms", "ms", "lower", 0.2},
	{"step_p95_ms", "ms", "lower", 0.25},
	{"arrive_p50_ms", "ms", "lower", 0.25},
	{"arrive_p95_ms", "ms", "lower", 0.25},
	{"state_p50_ms", "ms", "lower", 0.25},
	{"snapshot_p50_ms", "ms", "lower", 0.25},
}

// metric is one reported value with its unit and sample count. A metric is
// unresolved when its sample is too small for the statistic it names.
type metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	N          int     `json:"n"`
	Unresolved bool    `json:"unresolved,omitempty"`
	// TopP and TopV are, for a median of a sample, the highest percentile
	// with minTail samples beyond it and its value (0 when none has).
	TopP float64 `json:"top_p,omitempty"`
	TopV float64 `json:"top_v,omitempty"`
}

// report collects one run's metrics in the order they were set.
type report struct {
	names []string
	m     map[string]metric
}

func newReport() *report { return &report{m: map[string]metric{}} }

func (r *report) set(name, unit string, v float64, n int) {
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit, N: n}
}

// setMedian reports the median of xs under name, with the highest
// percentile the sample resolves.
func (r *report) setMedian(name, unit string, xs []float64) {
	d := Summarize(xs)
	r.set(name, unit, d.Median, d.N)
	m := r.m[name]
	m.TopP, m.TopV = d.TopP, d.TopV
	r.m[name] = m
}

// setPercentile reports the p-th percentile of xs, marking it unresolved
// when fewer than minTail samples lie beyond it.
func (r *report) setPercentile(name, unit string, xs []float64, p float64) {
	v, ok := Percentile(xs, p)
	r.set(name, unit, v, len(xs))
	if !ok {
		mm := r.m[name]
		mm.Unresolved = true
		r.m[name] = mm
	}
}

// printTable writes every metric as one aligned line: name, value, unit,
// sample count.
func (r *report) printTable(w io.Writer) {
	for _, name := range r.names {
		m := r.m[name]
		note := ""
		if m.Unresolved {
			note = "  unresolved: too few samples beyond this percentile"
		} else if m.TopP > 50 {
			note = fmt.Sprintf("  p%g %.6g", m.TopP, m.TopV)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s n=%d%s\n", name, m.Value, m.Unit, m.N, note)
	}
}

// result is the final line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueInUnit `json:"metrics"`
}

type valueInUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON line with the named metrics only: it
// carries exactly the metrics BENCHMARK.json lists.
func (r *report) resultLine(names []string, attempted, failed int, correct bool) ([]byte, error) {
	out := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]valueInUnit{}}
	for _, name := range names {
		m, ok := r.m[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a number (%v)", name, m.Value)
		}
		out.Metrics[name] = valueInUnit{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

func defNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return names
}

// perLayerNames lists every per-layer metric the traced mode reports, in
// BENCHMARK.json order, with its unit.
func perLayerNames() [][2]string {
	var out [][2]string
	add := func(prefix string, pairs ...string) {
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, [2]string{prefix + "." + pairs[i], pairs[i+1]})
		}
	}
	add("table1",
		"graph.cliques_s", "s",
		"energy.generate_s", "s", "energy.samples", "count",
		"forecast.bundle_s", "s", "forecast.bundles", "count",
		"workload.generate_s", "s", "workload.apps", "count",
		"sim.advance_s", "s")
	for _, p := range policyNames {
		add("table1", "sim.advance_s."+p, "s")
	}
	add("table1",
		"sim.advance_p95_ms", "ms", "sim.steps", "count",
		"core.place_s", "s", "core.placements", "count", "core.fallbacks", "count",
		"mip.solve_s", "s", "mip.solves", "count", "mip.nodes", "count", "mip.warm_hit_ratio", "ratio",
		"lp.pivots", "count", "lp.pivots_per_solve", "count", "lp.refactors", "count")
	for _, l := range table1Layers {
		add("table1", l+".self_s", "s")
	}
	add("table1", "runtime.gc_cycles", "count", "runtime.gc_pause_s", "s", "obs.trace_overhead_frac", "ratio")

	add("fig4a",
		"energy.generate_s", "s", "energy.samples", "count",
		"workload.generate_s", "s", "workload.vms", "count",
		"cluster.run_s", "s", "cluster.vm_events", "count",
		"cluster.failed_placements", "count", "cluster.failed_ratio", "ratio")
	for _, l := range fig4aLayers {
		add("fig4a", l+".self_s", "s")
	}
	add("fig4a", "runtime.gc_cycles", "count", "runtime.gc_pause_s", "s", "obs.trace_overhead_frac", "ratio")

	add("serve",
		"replay_s", "s", "http_overhead_s", "s", "request_bytes", "B", "decision_bytes", "B",
		"snapshot.bytes", "B", "snapshot.restore_ready_s", "s", "snapshot.fresh_ready_s", "s",
		"obs.scrape_p50_ms", "ms",
		"core.place_s", "s", "core.placements", "count", "core.fallbacks", "count",
		"mip.solve_s", "s", "mip.solves", "count", "mip.nodes", "count", "mip.warm_hit_ratio", "ratio",
		"lp.pivots", "count", "lp.pivots_per_solve", "count", "lp.refactors", "count",
		"cluster.failed_placements", "count", "cluster.failed_per_step", "count")
	for _, l := range serveLayers {
		add("serve", l+".self_s", "s")
	}
	add("serve", "runtime.gc_cycles", "count", "obs.trace_overhead_frac", "ratio")
	return out
}
