package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// FlowKey identifies one directed site→site migration edge.
type FlowKey struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// TraceAnalysis summarizes a recorded event stream offline: per-type,
// per-app and per-site aggregates, the site×site migration flow matrix,
// solver latency percentiles, and solver kernel totals.
//
// Types is accumulated with exactly the same operations, in the same
// order, as the live Tracer's stats (Count++, GB += e.GB, Cores +=
// e.Cores per event), so on a complete JSONL stream it reconciles
// bit-exactly with Tracer.AllStats() — float-for-float, not just
// approximately.
type TraceAnalysis struct {
	// Events is the total number of events analyzed.
	Events int `json:"events"`
	// Types aggregates per event type, bit-exact with the live tracer.
	Types map[EventType]TypeStats `json:"types,omitempty"`
	// Apps and Sites aggregate all events carrying an app ID (App >= 0)
	// or a source site (Site >= 0) respectively.
	Apps  map[int]TypeStats `json:"apps,omitempty"`
	Sites map[int]TypeStats `json:"sites,omitempty"`
	// Flows is the site×site migration matrix: GB moved per directed
	// src→dst edge, summed over planned reallocs, forced migrations and
	// VM moves with both endpoints known.
	Flows map[FlowKey]float64 `json:"-"`
	// SolveNS holds every MIPSolveFinish duration, sorted ascending, so
	// percentiles are exact (the full sample is available offline).
	SolveNS []int64 `json:"solve_ns,omitempty"`
	// Pivots and Refactors total the solver kernel counters over all
	// MIPSolveFinish events; MaxEtaLen is the longest sparse-LU eta chain
	// any solve finished with.
	Pivots    int64 `json:"pivots,omitempty"`
	Refactors int64 `json:"refactors,omitempty"`
	MaxEtaLen int   `json:"max_eta_len,omitempty"`
}

// Analyze aggregates an event stream in order. Events must be in emission
// order (as written by a JSONL sink) for bit-exact reconciliation.
func Analyze(events []Event) *TraceAnalysis {
	a := &TraceAnalysis{
		Types: map[EventType]TypeStats{},
		Apps:  map[int]TypeStats{},
		Sites: map[int]TypeStats{},
		Flows: map[FlowKey]float64{},
	}
	for _, e := range events {
		a.Events++
		tally(a.Types, e.Type, e)
		if e.App >= 0 {
			tally(a.Apps, e.App, e)
		}
		if e.Site >= 0 {
			tally(a.Sites, e.Site, e)
		}
		switch e.Type {
		case PlannedRealloc, ForcedMigration, VMMoved:
			if e.Site >= 0 && e.Dst >= 0 {
				a.Flows[FlowKey{Src: e.Site, Dst: e.Dst}] += e.GB
			}
		case MIPSolveFinish:
			a.SolveNS = append(a.SolveNS, e.DurNS)
			a.Pivots += e.Pivots
			a.Refactors += e.Refactors
			if e.EtaLen > a.MaxEtaLen {
				a.MaxEtaLen = e.EtaLen
			}
		}
	}
	sort.Slice(a.SolveNS, func(i, j int) bool { return a.SolveNS[i] < a.SolveNS[j] })
	return a
}

// SolveQuantile returns the exact q-quantile of solver wall-clock time
// (nearest-rank on the full sorted sample; zero when no solves).
func (a *TraceAnalysis) SolveQuantile(q float64) time.Duration {
	n := len(a.SolveNS)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(a.SolveNS[0])
	}
	if q >= 1 {
		return time.Duration(a.SolveNS[n-1])
	}
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return time.Duration(a.SolveNS[i])
}

// WriteText renders the analysis as the human-readable report vbobs
// prints: per-type, per-app and per-site tables, the migration flow
// matrix, solver percentiles and solver kernel totals.
func (a *TraceAnalysis) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%d events\n\n", a.Events); err != nil {
		return err
	}

	fmt.Fprintf(w, "%-22s %10s %14s %14s\n", "event type", "count", "GB", "cores")
	for _, ty := range sortedTypeKeys(a.Types) {
		s := a.Types[ty]
		fmt.Fprintf(w, "%-22s %10d %14.6g %14.6g\n", ty, s.Count, s.GB, s.Cores)
	}

	if len(a.Apps) > 0 {
		fmt.Fprintf(w, "\n%-22s %10s %14s %14s\n", "app", "events", "GB", "cores")
		for _, id := range sortedIntKeys(a.Apps) {
			s := a.Apps[id]
			fmt.Fprintf(w, "app %-18d %10d %14.6g %14.6g\n", id, s.Count, s.GB, s.Cores)
		}
	}
	if len(a.Sites) > 0 {
		fmt.Fprintf(w, "\n%-22s %10s %14s %14s\n", "site", "events", "GB", "cores")
		for _, id := range sortedIntKeys(a.Sites) {
			s := a.Sites[id]
			fmt.Fprintf(w, "site %-17d %10d %14.6g %14.6g\n", id, s.Count, s.GB, s.Cores)
		}
	}

	if len(a.Flows) > 0 {
		fmt.Fprintf(w, "\nmigration flows (GB, src row -> dst col)\n")
		sites := flowSites(a.Flows)
		fmt.Fprintf(w, "%8s", "")
		for _, d := range sites {
			fmt.Fprintf(w, " %12s", fmt.Sprintf("->%d", d))
		}
		fmt.Fprintln(w)
		for _, src := range sites {
			fmt.Fprintf(w, "site %3d", src)
			for _, dst := range sites {
				fmt.Fprintf(w, " %12.6g", a.Flows[FlowKey{Src: src, Dst: dst}])
			}
			fmt.Fprintln(w)
		}
	}

	if len(a.SolveNS) > 0 {
		fmt.Fprintf(w, "\nsolver: %d solves  p50 %v  p95 %v  p99 %v  max %v\n",
			len(a.SolveNS),
			a.SolveQuantile(0.50), a.SolveQuantile(0.95),
			a.SolveQuantile(0.99), a.SolveQuantile(1))
		if a.Pivots > 0 || a.Refactors > 0 {
			fmt.Fprintf(w, "basis: %d pivots  %d refactorizations  max eta chain %d\n",
				a.Pivots, a.Refactors, a.MaxEtaLen)
		}
	}
	return nil
}

func sortedTypeKeys(m map[EventType]TypeStats) []EventType {
	out := make([]EventType, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedIntKeys(m map[int]TypeStats) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// flowSites returns the sorted union of sites appearing in the matrix.
func flowSites(flows map[FlowKey]float64) []int {
	seen := map[int]bool{}
	for k := range flows {
		seen[k.Src] = true
		seen[k.Dst] = true
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
