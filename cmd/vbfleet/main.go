// Command vbfleet runs the scheduler's subgraph-identification step (Fig 6,
// step 1) over a site fleet: build the latency graph, enumerate k-cliques,
// and rank candidate multi-VB groups by the coefficient of variation of
// their summed power.
//
// Usage:
//
//	vbfleet                          # rank 2..4-site groups of the 12-site fleet
//	vbfleet -k 3 -top 5 -latency 25  # best 3-site groups under 25 ms
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	vb "github.com/vbcloud/vb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vbfleet: ")

	var (
		kArg       = flag.Int("k", 0, "group size (0 = sweep 2..4)")
		top        = flag.Int("top", 5, "groups to show per size")
		latency    = flag.Float64("latency", 0, "latency threshold in ms (0 = the paper's 50)")
		days       = flag.Int("days", 14, "days of power used for ranking")
		seed       = flag.Uint64("seed", vb.DefaultSeed, "random seed")
		metricsOut = flag.String("metrics", "", "write a ranking manifest (metrics JSON) to this file")
		listenAddr = flag.String("listen", "", "serve live telemetry (/metrics, /snapshot, /events, pprof) on this address (e.g. localhost:8090)")
	)
	flag.Parse()

	o, err := vb.Observe("", *metricsOut, *listenAddr)
	if err != nil {
		log.Fatal(err)
	}
	if addr := o.Addr(); addr != "" {
		log.Printf("telemetry on http://%s/ (/metrics /snapshot /events /debug/pprof/)", addr)
	}

	fleet := vb.EuropeanFleet(0)
	g, err := vb.NewGraph(fleet, *latency)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	world := vb.NewWorld(*seed)
	world.Obs = o.Reg
	powers, err := world.GeneratePower(fleet, start, time.Hour, *days*24)
	if err != nil {
		log.Fatal(err)
	}

	kMin, kMax := 2, 4
	if *kArg > 0 {
		kMin, kMax = *kArg, *kArg
	}
	rankSpan := vb.TimeSpan(o.Reg, "fleet.candidate_groups")
	groups, err := g.CandidateGroups(kMin, kMax, *top, powers)
	rankSpan()
	if err != nil {
		log.Fatal(err)
	}
	o.Reg.SetGauge("fleet.sites", float64(len(fleet)))
	o.Reg.SetGauge("fleet.groups", float64(len(groups)))
	names := make([]string, len(fleet))
	for i, s := range fleet {
		names[i] = s.Name
	}
	if err := o.Close(*seed, "", names); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fleet of %d sites, %g ms threshold, ranked by cov of summed power (%d days)\n\n",
		len(fleet), g.Threshold(), *days)
	fmt.Printf("%-40s %6s %8s\n", "group", "cov", "latency")
	for _, grp := range groups {
		names := make([]string, len(grp.Nodes))
		var worst float64
		for i, n := range grp.Nodes {
			names[i] = g.Site(n).Name
			for _, m := range grp.Nodes[i+1:] {
				if l := g.Latency(n, m); l > worst {
					worst = l
				}
			}
		}
		fmt.Printf("%-40s %6.2f %6.1fms\n", strings.Join(names, "+"), grp.CoV, worst)
	}

	if len(groups) == 0 {
		fmt.Println("no feasible groups at this threshold; try -latency 60")
	}
}
