// Package graph models the cluster of VB sites as a latency graph and
// implements the subgraph-identification step of the paper's scheduler
// (§3.1, Fig 6): nodes are VB sites, edges connect pairs whose latency is
// below a threshold (50 ms in the paper), and candidate placement groups are
// k-cliques — subgraphs where *every* pair is close, so an application split
// across the group never sees a high-latency hop.
package graph

import (
	"fmt"
	"sort"

	"github.com/vbcloud/vb/internal/energy"
	"github.com/vbcloud/vb/internal/stats"
	"github.com/vbcloud/vb/internal/trace"
)

// DefaultLatencyThresholdMS is the paper's 50 ms edge threshold.
const DefaultLatencyThresholdMS = 50

// Graph is a latency graph over VB sites.
type Graph struct {
	sites     []energy.SiteConfig
	threshold float64
	adj       [][]bool
	latency   [][]float64
}

// New builds the graph, connecting site pairs whose estimated latency is at
// or below thresholdMS (zero selects the 50 ms default).
func New(sites []energy.SiteConfig, thresholdMS float64) (*Graph, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("graph: no sites")
	}
	for _, s := range sites {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	if thresholdMS == 0 {
		thresholdMS = DefaultLatencyThresholdMS
	}
	if thresholdMS < 0 {
		return nil, fmt.Errorf("graph: negative latency threshold %v", thresholdMS)
	}
	g := &Graph{
		sites:     append([]energy.SiteConfig(nil), sites...),
		threshold: thresholdMS,
		adj:       make([][]bool, len(sites)),
		latency:   make([][]float64, len(sites)),
	}
	for i := range sites {
		g.adj[i] = make([]bool, len(sites))
		g.latency[i] = make([]float64, len(sites))
	}
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			l := energy.LatencyMS(sites[i], sites[j])
			g.latency[i][j], g.latency[j][i] = l, l
			if l <= thresholdMS {
				g.adj[i][j], g.adj[j][i] = true, true
			}
		}
	}
	return g, nil
}

// N returns the number of sites.
func (g *Graph) N() int { return len(g.sites) }

// Site returns the configuration of node i.
func (g *Graph) Site(i int) energy.SiteConfig { return g.sites[i] }

// Threshold returns the latency threshold in milliseconds.
func (g *Graph) Threshold() float64 { return g.threshold }

// Connected reports whether sites i and j have an edge.
func (g *Graph) Connected(i, j int) bool { return i != j && g.adj[i][j] }

// Latency returns the estimated latency between sites i and j in ms.
func (g *Graph) Latency(i, j int) float64 { return g.latency[i][j] }

// Cliques enumerates all cliques of exactly size k (k >= 1), each returned
// as a sorted slice of node indices. k = 1 returns every node. The paper
// uses k = 2..5.
func (g *Graph) Cliques(k int) ([][]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("graph: clique size %d must be >= 1", k)
	}
	var out [][]int
	cur := make([]int, 0, k)
	var extend func(start int)
	extend = func(start int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for v := start; v < len(g.sites); v++ {
			// Prune: not enough vertices left.
			if len(g.sites)-v < k-len(cur) {
				break
			}
			ok := true
			for _, u := range cur {
				if !g.adj[u][v] {
					ok = false
					break
				}
			}
			if ok {
				cur = append(cur, v)
				extend(v + 1)
				cur = cur[:len(cur)-1]
			}
		}
	}
	extend(0)
	return out, nil
}

// RankedClique is a candidate placement group with its variability score.
type RankedClique struct {
	// Nodes are the member site indices (sorted).
	Nodes []int
	// CoV is the coefficient of variation of the group's summed power.
	CoV float64
}

// RankCliques scores each clique by the cov of the summed power of its
// members (lower = steadier = better) and returns them sorted ascending.
// powers[i] must be the power series of site i.
func (g *Graph) RankCliques(cliques [][]int, powers []trace.Series) ([]RankedClique, error) {
	if len(powers) != len(g.sites) {
		return nil, fmt.Errorf("graph: %d power series for %d sites", len(powers), len(g.sites))
	}
	out := make([]RankedClique, 0, len(cliques))
	for _, c := range cliques {
		if len(c) == 0 {
			return nil, fmt.Errorf("graph: empty clique")
		}
		series := make([]trace.Series, 0, len(c))
		for _, idx := range c {
			if idx < 0 || idx >= len(g.sites) {
				return nil, fmt.Errorf("graph: clique node %d out of range", idx)
			}
			series = append(series, powers[idx])
		}
		sum, err := trace.Sum(series...)
		if err != nil {
			return nil, err
		}
		out = append(out, RankedClique{
			Nodes: append([]int(nil), c...),
			CoV:   stats.CoV(sum.Values),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CoV != out[j].CoV {
			return out[i].CoV < out[j].CoV
		}
		return fmt.Sprint(out[i].Nodes) < fmt.Sprint(out[j].Nodes)
	})
	return out, nil
}

// CandidateGroups runs the paper's subgraph-identification step: enumerate
// cliques for each k in [kMin, kMax], rank by cov, and return up to topN
// best groups per k. powers[i] is the (predicted) power of site i.
func (g *Graph) CandidateGroups(kMin, kMax, topN int, powers []trace.Series) ([]RankedClique, error) {
	if kMin < 1 || kMax < kMin {
		return nil, fmt.Errorf("graph: bad clique size range [%d, %d]", kMin, kMax)
	}
	if topN < 1 {
		return nil, fmt.Errorf("graph: topN %d must be >= 1", topN)
	}
	var out []RankedClique
	for k := kMin; k <= kMax; k++ {
		cliques, err := g.Cliques(k)
		if err != nil {
			return nil, err
		}
		ranked, err := g.RankCliques(cliques, powers)
		if err != nil {
			return nil, err
		}
		if len(ranked) > topN {
			ranked = ranked[:topN]
		}
		out = append(out, ranked...)
	}
	return out, nil
}
