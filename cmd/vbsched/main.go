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
	"io"
	"log"
	"os"

	vb "github.com/vbcloud/vb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vbsched: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run parses args and runs the comparison. The report goes to stdout and
// is a function of the flags alone; wall-clock solver latencies, printed
// when a registry is attached, go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vbsched", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		days       = fs.Int("days", 7, "days to simulate")
		seed       = fs.Uint64("seed", vb.DefaultSeed, "random seed")
		apps       = fs.Float64("apps", 6, "application arrivals per day")
		util       = fs.Float64("util", 0.7, "admission utilization target")
		maxSites   = fs.Int("maxsites", 3, "max sites per application")
		policyArg  = fs.String("policy", "", `run one policy only ("Greedy", "MIP", "MIP-24h", "MIP-peak")`)
		leadFc     = fs.Bool("leadforecasts", false, "use lead-dependent forecast degradation instead of the day-ahead archive")
		csvOut     = fs.Bool("csv", false, "emit per-policy transfer series as CSV")
		chart      = fs.Bool("chart", false, "render the Fig 7 CDF as an ASCII chart")
		traceOut   = fs.String("trace", "", "write structured run events to this JSONL file")
		metricsOut = fs.String("metrics", "", "write the run manifest (metrics JSON) to this file")
	)
	fs.Parse(args)

	setup := vb.Table1Setup{
		Seed:                   *seed,
		Days:                   *days,
		AppsPerDay:             *apps,
		UtilTarget:             *util,
		MaxSitesPerApp:         *maxSites,
		LeadDependentForecasts: *leadFc,
	}
	var policy string
	if *policyArg != "" {
		p, err := vb.ParsePolicy(*policyArg)
		if err != nil {
			return err
		}
		setup.Policies = []vb.Policy{p}
		policy = p.String()
	}
	o, err := vb.Observe(*traceOut, *metricsOut, "")
	if err != nil {
		return err
	}
	setup.Obs = o.Reg

	res, err := vb.Table1PolicyComparison(setup)
	if err != nil {
		return err
	}
	var fleet []string
	for _, s := range res.Group {
		fleet = append(fleet, s.Name)
	}
	if err := o.Close(*seed, policy, fleet); err != nil {
		return err
	}
	if *csvOut {
		names := make([]string, 0, len(res.Rows))
		series := make([]vb.Series, 0, len(res.Rows))
		for _, row := range res.Rows {
			names = append(names, row.Policy.String())
			series = append(series, res.Transfers[row.Policy])
		}
		return vb.WriteCSV(stdout, names, series...)
	}
	fmt.Fprint(stdout, res.Report())
	if h, ok := o.Reg.Histogram("mip.solve"); ok && h.Count > 0 {
		fmt.Fprintf(stderr, "vbsched: solver: %d solves  p50=%.2fms  p95=%.2fms  p99=%.2fms  max=%.2fms\n",
			h.Count, h.Quantile(0.50)*1e3, h.Quantile(0.95)*1e3, h.Quantile(0.99)*1e3, h.Max*1e3)
	}
	if *chart {
		cdfs, err := vb.Fig7CDFs(res)
		if err != nil {
			return err
		}
		sets := map[string][]vb.Point{}
		for pol, pts := range cdfs {
			sets[pol.String()] = pts
		}
		c, err := vb.PlotCDFs(sets, vb.PlotOptions{Title: "Fig 7: CDF of per-step transfer (GB)", Height: 12})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, c)
	}
	fmt.Fprintln(stdout, "  group:")
	for _, s := range res.Group {
		fmt.Fprintf(stdout, "    %-9s %-6s (%.1f, %.1f) %v MW\n", s.Name, s.Source, s.Latitude, s.Longitude, s.CapacityMW)
	}
	return nil
}
