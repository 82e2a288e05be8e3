package graph

import (
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/energy"
	"github.com/vbcloud/vb/internal/trace"
)

// clusteredSites returns two tight clusters of sites far from each other:
// {0,1,2} around Belgium, {3,4} around Greece.
func clusteredSites() []energy.SiteConfig {
	return []energy.SiteConfig{
		{Name: "BE1", Source: energy.Wind, Latitude: 50.8, Longitude: 4.4, CapacityMW: 400},
		{Name: "BE2", Source: energy.Solar, Latitude: 51.0, Longitude: 4.7, CapacityMW: 400},
		{Name: "NL1", Source: energy.Wind, Latitude: 52.1, Longitude: 5.1, CapacityMW: 400},
		{Name: "GR1", Source: energy.Solar, Latitude: 37.9, Longitude: 23.7, CapacityMW: 400},
		{Name: "GR2", Source: energy.Wind, Latitude: 38.2, Longitude: 23.9, CapacityMW: 400},
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, 50); err == nil {
		t.Error("no sites should error")
	}
	if _, err := New([]energy.SiteConfig{{}}, 50); err == nil {
		t.Error("invalid site should error")
	}
	if _, err := New(clusteredSites(), -1); err == nil {
		t.Error("negative threshold should error")
	}
}

func TestDefaultThreshold(t *testing.T) {
	g, err := New(clusteredSites(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Threshold() != DefaultLatencyThresholdMS {
		t.Errorf("threshold = %v, want %v", g.Threshold(), DefaultLatencyThresholdMS)
	}
}

func TestAdjacencyStructure(t *testing.T) {
	g, err := New(clusteredSites(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 {
		t.Fatalf("N = %d", g.N())
	}
	// Within-cluster pairs connected.
	if !g.Connected(0, 1) || !g.Connected(0, 2) || !g.Connected(3, 4) {
		t.Error("nearby sites should be connected at 20 ms")
	}
	// Cross-cluster pairs (~2000 km) are not, so site 0 has degree 2.
	if g.Connected(0, 3) || g.Connected(0, 4) || g.Connected(2, 4) {
		t.Error("distant sites should not be connected at 20 ms")
	}
	// Self edges don't exist.
	if g.Connected(1, 1) {
		t.Error("no self loops")
	}
	// Latency symmetric and positive.
	if g.Latency(0, 3) != g.Latency(3, 0) || g.Latency(0, 3) <= 0 {
		t.Error("latency should be symmetric positive")
	}
	if g.Site(3).Name != "GR1" {
		t.Error("Site accessor")
	}
}

func TestCliques(t *testing.T) {
	g, err := New(clusteredSites(), 20)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := g.Cliques(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1) != 5 {
		t.Errorf("1-cliques = %d, want 5", len(c1))
	}
	c2, err := g.Cliques(2)
	if err != nil {
		t.Fatal(err)
	}
	// Edges: (0,1),(0,2),(1,2),(3,4) = 4.
	if len(c2) != 4 {
		t.Errorf("2-cliques = %d, want 4: %v", len(c2), c2)
	}
	c3, err := g.Cliques(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(c3) != 1 || c3[0][0] != 0 || c3[0][1] != 1 || c3[0][2] != 2 {
		t.Errorf("3-cliques = %v, want [[0 1 2]]", c3)
	}
	c4, err := g.Cliques(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(c4) != 0 {
		t.Errorf("4-cliques = %v, want none", c4)
	}
	if _, err := g.Cliques(0); err == nil {
		t.Error("k=0 should error")
	}
}

func TestCliquesComplete(t *testing.T) {
	// A very generous threshold yields the complete graph: C(5,k) cliques.
	g, err := New(clusteredSites(), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{1: 5, 2: 10, 3: 10, 4: 5, 5: 1}
	for k, n := range want {
		cs, err := g.Cliques(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs) != n {
			t.Errorf("complete graph %d-cliques = %d, want %d", k, len(cs), n)
		}
	}
}

func mkPowers(n int, valsPerSite ...[]float64) []trace.Series {
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	out := make([]trace.Series, n)
	for i := range out {
		out[i] = trace.FromValues(start, time.Hour, valsPerSite[i])
	}
	return out
}

func TestRankCliques(t *testing.T) {
	sites := clusteredSites()[:3]
	g, err := New(sites, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	// Site 0 steady, site 1 spiky, site 2 anti-correlated with 1.
	powers := mkPowers(3,
		[]float64{10, 10, 10, 10},
		[]float64{0, 20, 0, 20},
		[]float64{20, 0, 20, 0},
	)
	cliques := [][]int{{0}, {1}, {1, 2}}
	ranked, err := g.RankCliques(cliques, powers)
	if err != nil {
		t.Fatal(err)
	}
	// Steady singleton and the perfectly complementary pair have cov 0 and
	// beat the spiky singleton.
	if ranked[len(ranked)-1].Nodes[0] != 1 || len(ranked[len(ranked)-1].Nodes) != 1 {
		t.Errorf("spiky singleton should rank last: %v", ranked)
	}
	for _, r := range ranked[:2] {
		if r.CoV != 0 {
			t.Errorf("steady groups should have cov 0: %+v", r)
		}
	}
}

func TestRankCliquesErrors(t *testing.T) {
	g, err := New(clusteredSites()[:2], 1e6)
	if err != nil {
		t.Fatal(err)
	}
	powers := mkPowers(2, []float64{1}, []float64{1})
	if _, err := g.RankCliques([][]int{{0}}, powers[:1]); err == nil {
		t.Error("power count mismatch should error")
	}
	if _, err := g.RankCliques([][]int{{}}, powers); err == nil {
		t.Error("empty clique should error")
	}
	if _, err := g.RankCliques([][]int{{7}}, powers); err == nil {
		t.Error("out-of-range node should error")
	}
}

func TestCandidateGroups(t *testing.T) {
	g, err := New(clusteredSites(), 20)
	if err != nil {
		t.Fatal(err)
	}
	powers := mkPowers(5,
		[]float64{1, 2, 1, 2},
		[]float64{2, 1, 2, 1},
		[]float64{1, 1, 1, 1},
		[]float64{5, 0, 5, 0},
		[]float64{0, 5, 0, 5},
	)
	groups, err := g.CandidateGroups(2, 3, 2, powers)
	if err != nil {
		t.Fatal(err)
	}
	// k=2: up to 2 best of 4 edges; k=3: the single triangle.
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3 (%v)", len(groups), groups)
	}
	// Both complementary pairs (0,1) and (3,4) sum to a constant => cov 0
	// and occupy the two k=2 slots.
	if groups[0].CoV != 0 || groups[1].CoV != 0 {
		t.Errorf("best 2-groups should be the complementary pairs: %+v", groups[:2])
	}
	if len(groups[0].Nodes) != 2 || len(groups[1].Nodes) != 2 {
		t.Errorf("first two groups should be pairs: %+v", groups[:2])
	}
	if _, err := g.CandidateGroups(0, 2, 1, powers); err == nil {
		t.Error("bad kMin should error")
	}
	if _, err := g.CandidateGroups(2, 1, 1, powers); err == nil {
		t.Error("kMax < kMin should error")
	}
	if _, err := g.CandidateGroups(2, 2, 0, powers); err == nil {
		t.Error("topN 0 should error")
	}
}
