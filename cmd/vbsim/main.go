// Command vbsim runs the single-site migration-overhead simulation behind
// the paper's Figure 4: a 700-server VB site driven by renewable power with
// an Azure-like VM arrival trace.
//
// Usage:
//
//	vbsim -days 7 -source wind
//	vbsim -days 90 -source solar -csv > transfers.csv
//	vbsim -days 7 -trace run.jsonl -metrics run.json
//	vbsim -days 365 -listen localhost:6060   # /metrics, /events and /debug/pprof/
//	vbsim -all                # regenerate every figure/table concurrently
//	GOMAXPROCS=1 vbsim -all   # ...serially, with byte-identical output
//	vbsim -days 4 -faults 'blackout:1@8-12,slow:-1@0-16=4096'   # faulted Table 1
//	vbsim -workload cohorts.json -record trace.jsonl   # per-SLO-class table + trace v2
//	vbsim -replay trace.jsonl                          # same table from the recording
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
	log.SetPrefix("vbsim: ")

	var (
		days       = flag.Int("days", 7, "days to simulate")
		seed       = flag.Uint64("seed", vb.DefaultSeed, "random seed")
		sourceArg  = flag.String("source", "wind", `power source: "wind" or "solar"`)
		csvOut     = flag.Bool("csv", false, "emit the per-step power/in/out series as CSV")
		chart      = flag.Bool("chart", false, "render the Fig 4a timeline as an ASCII chart")
		traceOut   = flag.String("trace", "", "write structured run events to this JSONL file")
		metricsOut = flag.String("metrics", "", "write the run manifest (metrics JSON) to this file")
		listenAddr = flag.String("listen", "", "serve live telemetry (/metrics, /snapshot, /events, pprof) on this address (e.g. localhost:8090)")
		runAll     = flag.Bool("all", false, "regenerate every figure and table of the evaluation and exit")
		faults     = flag.String("faults", "", "run the Table 1 comparison under a fault script: compact spec (kind:site[:peer]@start-end[=sev],...) or @file.json")
		workload   = flag.String("workload", "", "run the per-SLO-class policy comparison over a cohort trace spec (JSON file)")
		record     = flag.String("record", "", "with -workload: also record the generated application trace (v2 JSONL) to this file")
		replay     = flag.String("replay", "", "run the per-SLO-class policy comparison over a recorded trace (v2 JSONL file)")
	)
	flag.Parse()

	if (*workload != "" || *replay != "" || (*runAll && *faults == "")) &&
		(*traceOut != "" || *metricsOut != "" || *listenAddr != "") {
		log.Fatal("-trace, -metrics and -listen observe the Fig 4 and -faults runs only, not -all, -workload or -replay")
	}
	if *workload != "" || *replay != "" {
		if err := runWorkload(*seed, *days, *workload, *record, *replay); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *runAll && *faults == "" {
		res, err := vb.RunAllExperiments(*seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(res.Report())
		return
	}

	var script *vb.FaultScript
	var src vb.Source
	switch {
	case *faults != "":
		var err error
		if script, err = vb.ParseFaultArg(*faults); err != nil {
			log.Fatal(err)
		}
	case *sourceArg == "wind":
		src = vb.Wind
	case *sourceArg == "solar":
		src = vb.Solar
	default:
		log.Fatalf("unknown -source %q", *sourceArg)
	}

	o, err := vb.Observe(*traceOut, *metricsOut, *listenAddr)
	if err != nil {
		log.Fatal(err)
	}
	if addr := o.Addr(); addr != "" {
		log.Printf("telemetry on http://%s/ (/metrics /snapshot /events /debug/pprof/)", addr)
	}
	if script != nil {
		if err := runFaulted(*seed, *days, script, o); err != nil {
			log.Fatal(err)
		}
		return
	}

	res, err := vb.Fig4MigrationObs(*seed, src, *days, o.Reg)
	if err != nil {
		log.Fatal(err)
	}
	if err := o.Close(*seed, "", []string{*sourceArg}); err != nil {
		log.Fatal(err)
	}
	if *csvOut {
		if err := vb.WriteCSV(os.Stdout, []string{"power", "out_gb", "in_gb"},
			res.Run.Power, res.Run.OutGB, res.Run.InGB); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(res.Report())
	if *chart {
		c, err := vb.PlotSeries(res.Run.Power, vb.PlotOptions{Title: "normalized power", Height: 8})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(c)
		c, err = vb.PlotMulti([]vb.Series{res.Run.OutGB.Shift(1), res.Run.InGB.Shift(1)},
			[]string{"out GB", "in GB"}, vb.PlotOptions{Title: "migration traffic per 15 min (log)", LogY: true, Height: 10})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(c)
	}
	link := 200.0
	fmt.Printf("  utilization mean: %.1f%%\n", res.Run.Utilization.Mean()*100)
	if h, ok := o.Reg.Histogram("cluster.step_out_gb"); ok && h.Count > 0 {
		fmt.Printf("  per-step out-GB quantiles: p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
			h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max)
	}
	fmt.Printf("  at %.0f Gb/s per-site WAN: see `go test -bench=BenchmarkWANBusyFraction`\n", link)
}

// runWorkload drives the per-SLO-class policy comparison from a cohort
// trace spec (-workload, optionally recording the generated trace with
// -record) or from a previously recorded trace (-replay). A record/replay
// round trip reproduces the generated run's table bit for bit.
func runWorkload(seed uint64, days int, specPath, recordPath, replayPath string) error {
	if specPath != "" && replayPath != "" {
		return fmt.Errorf("-workload and -replay are mutually exclusive")
	}
	if recordPath != "" && specPath == "" {
		return fmt.Errorf("-record requires -workload")
	}
	setup := vb.SLOClassSetup{Seed: seed, Days: days}

	if replayPath != "" {
		f, err := os.Open(replayPath)
		if err != nil {
			return err
		}
		defer f.Close()
		h, apps, err := vb.ReadAppTrace(f)
		if err != nil {
			return err
		}
		res, err := vb.SLOClassReplay(setup, apps)
		if err != nil {
			return err
		}
		fmt.Printf("Replayed trace: %d apps, seed %d, spec %s\n", len(apps), h.Seed, h.SpecHash)
		fmt.Print(res.Report())
		return nil
	}

	spec, err := vb.LoadTraceSpec(specPath)
	if err != nil {
		return err
	}
	setup.Spec = spec
	if recordPath != "" {
		apps, err := vb.GenerateCohortApps(*spec)
		if err != nil {
			return err
		}
		f, err := os.Create(recordPath)
		if err != nil {
			return err
		}
		h := vb.TraceHeader{Seed: spec.Seed, SpecHash: fmt.Sprintf("%016x", spec.Hash())}
		if err := vb.WriteAppTrace(f, h, apps); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Printf("recorded %d apps to %s", len(apps), recordPath)
	}
	res, err := vb.SLOClassComparison(setup)
	if err != nil {
		return err
	}
	fmt.Print(res.Report())
	return nil
}

// runFaulted reruns the multi-site Table 1 policy comparison under a fault
// script (site blackouts, brownouts, WAN cuts, forecast busts, solver
// slowdowns) and reports the resulting migration overhead and availability
// alongside the fault and degradation counters, which it reads from the
// observation's registry or, without one, from a registry of its own. The
// same seed plus the same script always reproduces the same table.
func runFaulted(seed uint64, days int, script *vb.FaultScript, o *vb.Observation) error {
	reg := o.Reg
	if reg == nil {
		reg = vb.NewMetrics()
	}
	res, err := vb.Table1PolicyComparison(vb.Table1Setup{
		Seed:   seed,
		Days:   days,
		Faults: script,
		Obs:    reg,
	})
	if err != nil {
		return err
	}
	var fleet []string
	for _, s := range res.Group {
		fleet = append(fleet, s.Name)
	}
	if err := o.Close(seed, "", fleet); err != nil {
		return err
	}
	fmt.Printf("Faulted run: %d event(s), %d days\n", len(script.Events), days)
	fmt.Print(res.Report())
	fmt.Printf("  faults injected: %.0f  scheduler fallbacks: %.0f  solver deadline/derate truncations: %.0f\n",
		reg.Counter("fault.injected.count"),
		reg.Counter("scheduler.fallback.count"),
		reg.Counter("solver.deadline_exceeded"))
	return nil
}
