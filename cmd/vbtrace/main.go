// Command vbtrace generates synthetic renewable power traces and their
// forecasts, printing them as CSV or a summary table.
//
// Usage:
//
//	vbtrace -days 7 -step 15m -seed 42 -sites trio -format csv > power.csv
//	vbtrace -days 365 -summary
//	vbtrace -days 30 -forecast 24h
//	vbtrace -workload cohorts.json > apps.jsonl       # cohort app trace (v2 JSONL)
//	vbtrace -workload cohorts.json -format summary    # per-class breakdown
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	vb "github.com/vbcloud/vb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vbtrace: ")

	var (
		days       = flag.Int("days", 7, "days of trace to generate")
		step       = flag.Duration("step", 15*time.Minute, "sampling step (must divide 24h)")
		seed       = flag.Uint64("seed", vb.DefaultSeed, "random seed")
		sitesArg   = flag.String("sites", "trio", `site set: "trio" (NO/UK/PT) or "fleet" (12 sites)`)
		format     = flag.String("format", "csv", `output: "csv", "summary" or "chart"`)
		fcH        = flag.Duration("forecast", 0, "also emit forecasts at this horizon (e.g. 24h; 0 = none)")
		startArg   = flag.String("start", "2020-01-01", "trace start date (YYYY-MM-DD)")
		metricsOut = flag.String("metrics", "", "write a generation manifest (metrics JSON) to this file")
		workload   = flag.String("workload", "", "generate an application trace from a cohort spec (JSON file): trace v2 JSONL on stdout, or a per-class breakdown with -format summary")
	)
	flag.Parse()

	if *workload != "" {
		if err := runWorkloadTrace(*workload, *format); err != nil {
			log.Fatal(err)
		}
		return
	}

	start, err := time.Parse("2006-01-02", *startArg)
	if err != nil {
		log.Fatalf("bad -start: %v", err)
	}
	var sites []vb.SiteConfig
	switch *sitesArg {
	case "trio":
		sites = vb.EuropeanTrio()
	case "fleet":
		sites = vb.EuropeanFleet(0)
	default:
		log.Fatalf("unknown -sites %q", *sitesArg)
	}

	var reg *vb.MetricsRegistry
	if *metricsOut != "" {
		reg = vb.NewMetrics()
	}

	n := int(time.Duration(*days) * 24 * time.Hour / *step)
	world := vb.NewWorld(*seed)
	world.Obs = reg
	series, err := world.Generate(sites, start, *step, n)
	if err != nil {
		log.Fatal(err)
	}

	names := make([]string, len(sites))
	for i, s := range sites {
		names[i] = s.Name
	}

	if *fcH > 0 {
		fc := vb.NewForecaster(*seed)
		fc.Obs = reg
		for i, s := range sites {
			f, err := fc.Forecast(series[i], s.Source, *fcH, s.Name)
			if err != nil {
				log.Fatal(err)
			}
			series = append(series, f)
			names = append(names, s.Name+"-fc")
		}
	}

	if *metricsOut != "" {
		m := reg.Manifest()
		m.Seed = *seed
		m.Fleet = names
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

	switch *format {
	case "csv":
		if err := vb.WriteCSV(os.Stdout, names, series...); err != nil {
			log.Fatal(err)
		}
	case "summary":
		fmt.Printf("%-12s %8s %8s %8s %8s %8s\n", "site", "mean", "median", "p99", "max", "zeros%")
		for i, name := range names {
			sum, err := vb.Summarize(series[i].Values)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-12s %8.3f %8.3f %8.3f %8.3f %7.1f%%\n",
				name, sum.Mean, sum.P50, sum.P99, sum.Max, series[i].FractionZero(1e-9)*100)
		}
	case "chart":
		chart, err := vb.PlotMulti(series, names, vb.PlotOptions{
			Title:  fmt.Sprintf("normalized power, %d days", *days),
			YLabel: "fraction of capacity",
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(chart)
	default:
		log.Fatalf("unknown -format %q", *format)
	}
}

// runWorkloadTrace generates a cohort application trace from a spec file and
// emits it as versioned trace v2 JSONL (format "csv" is not meaningful here;
// "summary" prints the per-cohort class/size breakdown instead).
func runWorkloadTrace(specPath, format string) error {
	spec, err := vb.LoadTraceSpec(specPath)
	if err != nil {
		return err
	}
	apps, err := vb.GenerateCohortApps(*spec)
	if err != nil {
		return err
	}
	if format == "summary" {
		type agg struct {
			apps, vms, cores int
		}
		byClass := map[vb.WorkloadClass]*agg{}
		for _, a := range apps {
			for _, v := range a.VMs {
				c := byClass[v.Class]
				if c == nil {
					c = &agg{}
					byClass[v.Class] = c
				}
				c.vms++
				c.cores += v.Cores
			}
			cls := a.VMs[0].Class
			byClass[cls].apps++
		}
		fmt.Printf("cohort trace: %d apps over %.0f h (seed %d, spec %016x)\n",
			len(apps), spec.DurationHours, spec.Seed, spec.Hash())
		fmt.Printf("%-12s %8s %8s %8s\n", "class", "apps", "vms", "cores")
		for _, c := range vb.AllWorkloadClasses() {
			a := byClass[c]
			if a == nil {
				continue
			}
			fmt.Printf("%-12s %8d %8d %8d\n", c, a.apps, a.vms, a.cores)
		}
		return nil
	}
	h := vb.TraceHeader{Seed: spec.Seed, SpecHash: fmt.Sprintf("%016x", spec.Hash())}
	return vb.WriteAppTrace(os.Stdout, h, apps)
}
