// Command vbplan schedules applications across VB sites from user-supplied
// CSV inputs, so real traces (e.g. ELIA downloads) can drive the paper's
// co-scheduler directly.
//
// Inputs:
//
//   - -power: a CSV written in the vbtrace format (header "time,site1,...")
//     holding one *normalized* power column per site. The sampling step is
//     the scheduler's plan step.
//   - -apps: a CSV with header "id,arrival,cores,stable_cores,mem_gb_per_core"
//     where arrival is RFC 3339.
//
// Output: per-step transfer summary and, with -plan, each application's
// allocation at every step.
//
// Example:
//
//	vbtrace -days 7 -step 6h > power.csv
//	vbplan -power power.csv -apps apps.csv -policy MIP-peak
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"time"

	vb "github.com/vbcloud/vb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vbplan: ")

	var (
		powerPath  = flag.String("power", "", "CSV of normalized per-site power (required)")
		appsPath   = flag.String("apps", "", "CSV of application demands (required)")
		policyArg  = flag.String("policy", "MIP", `scheduling policy ("Greedy", "MIP", "MIP-24h", "MIP-peak")`)
		cores      = flag.Float64("cores", 28000, "fully powered cores per site")
		util       = flag.Float64("util", 0.7, "admission utilization target")
		seed       = flag.Uint64("seed", vb.DefaultSeed, "seed for the forecast error process")
		showPlan   = flag.Bool("plan", false, "print per-app allocations per step")
		traceOut   = flag.String("trace", "", "write structured run events to this JSONL file")
		metricsOut = flag.String("metrics", "", "write the run manifest (metrics JSON) to this file")
		parallel   = flag.Int("parallel", 0, "worker goroutines for forecasting and simulation (0 = all cores, 1 = serial; output is identical)")
	)
	flag.Parse()
	vb.SetParallelism(*parallel)
	if *powerPath == "" || *appsPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	policy, err := vb.ParsePolicy(*policyArg)
	if err != nil {
		log.Fatal(err)
	}

	names, series, err := readPower(*powerPath)
	if err != nil {
		log.Fatalf("reading power: %v", err)
	}
	apps, err := readApps(*appsPath)
	if err != nil {
		log.Fatalf("reading apps: %v", err)
	}

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

	// Real deployments have real forecasts; lacking them, synthesize
	// day-ahead-quality forecasts around the supplied truth.
	fc := vb.NewForecaster(*seed)
	fc.Obs = reg
	bundles := make([]*vb.Bundle, len(series))
	for i := range series {
		b, err := fc.NewBundle(series[i], vb.Wind, names[i])
		if err != nil {
			log.Fatal(err)
		}
		if err := b.UseFixedHorizon(vb.HorizonDay); err != nil {
			log.Fatal(err)
		}
		bundles[i] = b
	}

	res, err := vb.RunPolicy(vb.SchedulerConfig{
		Policy:     policy,
		PlanStep:   series[0].Step,
		UtilTarget: *util,
		Obs:        reg,
	}, vb.SimInput{
		Actual:     series,
		Bundles:    bundles,
		TotalCores: *cores,
		Apps:       apps,
		Obs:        reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := vb.FinishTraceSink(reg, traceFile); err != nil {
		log.Fatalf("trace sink failed, events lost: %v", err)
	}
	if *metricsOut != "" {
		m := reg.Manifest()
		m.Seed = *seed
		m.Policy = policy.String()
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

	total, p99, peak, std, err := res.Summary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy %s over %d steps of %v across %d sites (%d apps)\n",
		policy, res.Transfer.Len(), series[0].Step, len(series), len(apps))
	fmt.Printf("  total=%.0f GB  p99=%.0f GB  peak=%.0f GB  std=%.0f GB  zeros=%.0f%%\n",
		total, p99, peak, std, res.ZeroFraction()*100)
	fmt.Printf("  planned=%.0f GB  forced=%.0f GB  paused stable core-steps=%.0f\n",
		res.PlannedGB, res.ForcedGB, res.PausedStableCoreSteps)

	if *showPlan {
		fmt.Println("\nper-step transfer (GB):")
		for i, v := range res.Transfer.Values {
			fmt.Printf("  %s  %8.1f\n", res.Transfer.TimeAt(i).Format(time.RFC3339), v)
		}
	}
}

// readPower loads the vbtrace CSV and validates it as normalized power.
func readPower(path string) ([]string, []vb.Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	names, series, err := vb.ReadCSV(f)
	if err != nil {
		return nil, nil, err
	}
	for i, s := range series {
		if s.Min() < 0 || s.Max() > 1.000001 {
			return nil, nil, fmt.Errorf("column %s is not normalized to [0,1] (range %.3f-%.3f)",
				names[i], s.Min(), s.Max())
		}
	}
	return names, series, nil
}

// readApps parses the application CSV.
func readApps(path string) ([]vb.AppDemand, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	header, err := r.Read()
	if err != nil {
		return nil, err
	}
	want := []string{"id", "arrival", "cores", "stable_cores", "mem_gb_per_core"}
	if len(header) != len(want) {
		return nil, fmt.Errorf("header %v, want %v", header, want)
	}
	for i := range want {
		if header[i] != want[i] {
			return nil, fmt.Errorf("header %v, want %v", header, want)
		}
	}
	var out []vb.AppDemand
	for line := 2; ; line++ {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad id %q", line, rec[0])
		}
		arrival, err := time.Parse(time.RFC3339, rec[1])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad arrival %q", line, rec[1])
		}
		nums := make([]float64, 3)
		for i := 0; i < 3; i++ {
			nums[i], err = strconv.ParseFloat(rec[2+i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad number %q", line, rec[2+i])
			}
		}
		d := vb.AppDemand{
			ID:           id,
			Cores:        nums[0],
			StableCores:  nums[1],
			MemGBPerCore: nums[2],
			Start:        arrival,
		}
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no applications in %s", path)
	}
	return out, nil
}
