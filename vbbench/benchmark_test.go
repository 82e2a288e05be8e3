package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json names only
// workloads the benchmark runs and lists exactly the metrics it reports:
// the common end-to-end metrics with their bounds, and every per-layer
// metric of the traced mode.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var f struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workloads {
		known := false
		for _, name := range workloads {
			known = known || w.Name == name
		}
		if !known {
			t.Errorf("BENCHMARK.json lists workload %s, which the benchmark does not run", w.Name)
		}
	}
	if len(f.EndToEnd) != len(commonMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(f.EndToEnd), len(commonMetrics))
	}
	for i, e := range f.EndToEnd {
		d := commonMetrics[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound == nil || *e.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, e, d)
		}
	}
	want := perLayerNames()
	if len(f.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(f.PerLayer), len(want))
	}
	for i, e := range f.PerLayer {
		better := "lower"
		if strings.HasSuffix(e.Name, "warm_hit_ratio") {
			better = "higher"
		}
		if e.Name != want[i][0] || e.Unit != want[i][1] || e.Better != better || e.Bound != nil {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %v (better %s)", i, e, want[i], better)
		}
	}
}
