// Command vbsched runs the multi-VB scheduler comparison behind the paper's
// Table 1 and Figure 7: Greedy vs MIP vs MIP-24h vs MIP-peak over a
// three-site group for a week.
//
// Usage:
//
//	vbsched
//	vbsched -days 7 -apps 6 -util 0.7 -policy MIP-peak
//	vbsched -csv > transfers.csv
//	vbsched -policy MIP -trace run.jsonl -metrics run.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	vb "github.com/vbcloud/vb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vbsched: ")

	var (
		days       = flag.Int("days", 7, "days to simulate")
		seed       = flag.Uint64("seed", vb.DefaultSeed, "random seed")
		apps       = flag.Float64("apps", 6, "application arrivals per day")
		util       = flag.Float64("util", 0.7, "admission utilization target")
		maxSites   = flag.Int("maxsites", 3, "max sites per application")
		policyArg  = flag.String("policy", "", `run one policy only ("Greedy", "MIP", "MIP-24h", "MIP-peak")`)
		leadFc     = flag.Bool("leadforecasts", false, "use lead-dependent forecast degradation instead of the day-ahead archive")
		csvOut     = flag.Bool("csv", false, "emit per-policy transfer series as CSV")
		chart      = flag.Bool("chart", false, "render the Fig 7 CDF as an ASCII chart")
		traceOut   = flag.String("trace", "", "write structured run events to this JSONL file")
		metricsOut = flag.String("metrics", "", "write the run manifest (metrics JSON) to this file")
		parallel   = flag.Int("parallel", 0, "worker goroutines for generation and experiments (0 = all cores, 1 = serial; output is identical)")
	)
	flag.Parse()
	vb.SetParallelism(*parallel)

	var reg *vb.MetricsRegistry
	if *traceOut != "" || *metricsOut != "" {
		reg = vb.NewMetrics()
	}
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		traceFile = f
		reg.Tracer().SetSink(f)
	}

	setup := vb.Table1Setup{
		Seed:                   *seed,
		Days:                   *days,
		AppsPerDay:             *apps,
		UtilTarget:             *util,
		MaxSitesPerApp:         *maxSites,
		LeadDependentForecasts: *leadFc,
		Obs:                    reg,
	}
	if *policyArg != "" {
		p, err := vb.ParsePolicy(*policyArg)
		if err != nil {
			log.Fatal(err)
		}
		setup.Policies = []vb.Policy{p}
	}

	res, err := vb.Table1PolicyComparison(setup)
	if err != nil {
		log.Fatal(err)
	}
	if err := vb.FinishTraceSink(reg, traceFile); err != nil {
		log.Fatalf("trace sink failed, events lost: %v", err)
	}
	if *metricsOut != "" {
		m := reg.Manifest()
		m.Seed = *seed
		for _, s := range res.Group {
			m.Fleet = append(m.Fleet, s.Name)
		}
		if len(setup.Policies) == 1 {
			m.Policy = setup.Policies[0].String()
		}
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := m.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *csvOut {
		names := make([]string, 0, len(res.Rows))
		series := make([]vb.Series, 0, len(res.Rows))
		for _, row := range res.Rows {
			names = append(names, row.Policy.String())
			series = append(series, res.Transfers[row.Policy])
		}
		if err := vb.WriteCSV(os.Stdout, names, series...); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(res.Report())
	if h, ok := reg.Histogram("mip.solve"); ok && h.Count > 0 {
		fmt.Printf("  solver: %d solves  p50=%.2fms  p95=%.2fms  p99=%.2fms  max=%.2fms\n",
			h.Count, h.Quantile(0.50)*1e3, h.Quantile(0.95)*1e3, h.Quantile(0.99)*1e3, h.Max*1e3)
	}
	if *chart {
		cdfs, err := vb.Fig7CDFs(res)
		if err != nil {
			log.Fatal(err)
		}
		sets := map[string][]vb.Point{}
		for pol, pts := range cdfs {
			sets[pol.String()] = pts
		}
		c, err := vb.PlotCDFs(sets, vb.PlotOptions{Title: "Fig 7: CDF of per-step transfer (GB)", Height: 12})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(c)
	}
	fmt.Println("  group:")
	for _, s := range res.Group {
		fmt.Printf("    %-9s %-6s (%.1f, %.1f) %v MW\n", s.Name, s.Source, s.Latitude, s.Longitude, s.CapacityMW)
	}
}
