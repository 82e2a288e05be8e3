// Command vbserve is the long-lived online scheduling daemon: it owns a
// streaming VM-granularity engine (vb.VMEngine), admits application
// arrivals over HTTP, advances the plan timeline step by step, and serves
// every decision it makes as a JSONL log — alongside live obs-v2 telemetry
// (/metrics, /events, pprof) from the run's registry.
//
// Because renewable-site scheduling is deterministic given the arrival
// stream, the daemon supports exact record/replay and crash recovery:
//
//   - `vbserve -genlog` emits the synthetic workload as a request log
//     (JSONL of arrive/step operations);
//   - `vbserve -replay log.jsonl -decisions out.jsonl` drives the engine
//     through a recorded log and writes the decision log;
//   - `-snapshot-after N` stops a replay after N steps and writes the
//     engine's complete state (server packing, plans, scheduler ledgers)
//     to disk;
//   - `-restore snap.bin` resumes a replay (or the HTTP daemon) from a
//     snapshot; the decisions after the restore are byte-identical to an
//     uninterrupted run's.
//
// Usage:
//
//	vbserve -listen :8091                     # HTTP daemon
//	vbserve -workload cohorts.json -genlog    # SLO cohort request log
//	vbserve -genlog -out requests.jsonl       # record the workload
//	vbserve -replay requests.jsonl -decisions full.jsonl
//	vbserve -replay requests.jsonl -snapshot-after 6 -snapshot snap.bin \
//	        -decisions part1.jsonl
//	vbserve -replay requests.jsonl -restore snap.bin -decisions part2.jsonl
//	cat part1.jsonl part2.jsonl | cmp - full.jsonl   # byte-identical
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	vb "github.com/vbcloud/vb"
)

// scenarioStart anchors the daemon's synthetic timeline.
var scenarioStart = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

// planStep is the scheduling granularity (the paper's 6-hour window).
const planStep = 6 * time.Hour

func main() {
	log.SetFlags(0)
	log.SetPrefix("vbserve: ")

	var (
		seed       = flag.Uint64("seed", 42, "world seed (energy traces and forecasts)")
		days       = flag.Int("days", 7, "timeline length in days")
		appsPerDay = flag.Float64("apps-per-day", 6, "mean application arrivals per day")
		policyName = flag.String("policy", "MIP", "scheduling policy (Greedy, MIP, MIP-24h, MIP-peak)")
		listen     = flag.String("listen", ":8091", "HTTP listen address (serve mode)")
		decisions  = flag.String("decisions", "", "append per-step decision records (JSONL) to this file")
		snapshot   = flag.String("snapshot", "", "snapshot file path (written by POST /v1/snapshot or -snapshot-after)")
		restore    = flag.String("restore", "", "restore engine state from this snapshot before serving/replaying")
		replay     = flag.String("replay", "", "replay a recorded request log (JSONL) and exit")
		snapAfter  = flag.Int("snapshot-after", 0, "in replay mode: stop after this many steps and write -snapshot")
		genlog     = flag.Bool("genlog", false, "emit the synthetic workload as a request log and exit")
		out        = flag.String("out", "", "output path for -genlog (default stdout)")
		faults     = flag.String("faults", "", "fault script: compact spec (kind:site@start-end[=sev],...) or @file.json")
		workload   = flag.String("workload", "", "drive the daemon with an SLO cohort trace spec (JSON file) instead of the legacy synthetic workload")
		maxPending = flag.Int("max-pending", 4096, "arrival queue bound before 429 backpressure (0 = unbounded)")
		drain      = flag.Duration("shutdown-timeout", 10*time.Second, "graceful-shutdown drain deadline on SIGINT/SIGTERM")
	)
	flag.Parse()

	policy, err := vb.ParsePolicy(*policyName)
	if err != nil {
		log.Fatal(err)
	}
	scn, err := buildScenario(*seed, *days, *appsPerDay, policy, *workload)
	if err != nil {
		log.Fatal(err)
	}
	if err := scn.applyFaults(*faults); err != nil {
		log.Fatal(err)
	}

	switch {
	case *genlog:
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := writeRequestLog(w, scn); err != nil {
			log.Fatal(err)
		}
	case *replay != "":
		if err := replayLog(scn, *replay, *decisions, *snapshot, *restore, *snapAfter); err != nil {
			log.Fatal(err)
		}
	default:
		if err := serve(scn, *listen, *decisions, *snapshot, *restore, *maxPending, *drain); err != nil {
			log.Fatal(err)
		}
	}
}

// scenario bundles the deterministic run configuration every mode shares:
// the same (seed, days, appsPerDay, policy) always produces the same
// energy traces, forecasts, workload, and therefore the same decisions.
type scenario struct {
	cfg        vb.SchedulerConfig
	in         vb.SimInput
	clusterCfg vb.ClusterConfig
	reg        *vb.MetricsRegistry
	// arrivals holds every application (demand + its VMs) sorted by Start
	// — the stream a request log records.
	arrivals []vb.AppArrival
}

// buildScenario reconstructs the full deterministic scenario. It mirrors
// the repo's experiment setup: the paper's European site trio, hourly
// generation windowed to the 6-hour plan step, day-horizon forecasts, and
// a synthetic application workload (legacy two-class by default, an SLO
// cohort trace when workloadSpec names a spec file).
func buildScenario(seed uint64, days int, appsPerDay float64, policy vb.Policy, workloadSpec string) (*scenario, error) {
	if days <= 0 {
		return nil, fmt.Errorf("non-positive day count %d", days)
	}
	reg := vb.NewMetrics()
	world := vb.NewWorld(seed)
	world.Obs = reg
	sites := vb.EuropeanTrio()
	fine, err := world.Generate(sites, scenarioStart, time.Hour, days*24)
	if err != nil {
		return nil, err
	}
	fc := vb.NewForecaster(seed + 1)
	fc.Obs = reg
	actual := make([]vb.Series, len(sites))
	bundles := make([]*vb.Bundle, len(sites))
	for i := range sites {
		if actual[i], err = fine[i].WindowMin(planStep); err != nil {
			return nil, err
		}
		if bundles[i], err = fc.NewBundle(actual[i], sites[i].Source, sites[i].Name); err != nil {
			return nil, err
		}
		if err := bundles[i].UseFixedHorizon(vb.HorizonDay); err != nil {
			return nil, err
		}
	}
	apps, err := scenarioApps(seed, days, appsPerDay, workloadSpec)
	if err != nil {
		return nil, err
	}
	clusterCfg := vb.ClusterConfig{
		Servers:           700,
		CoresPerServer:    40,
		MemPerServerGB:    512,
		TargetUtilization: 0.70,
	}
	var arrivals []vb.AppArrival
	for _, a := range apps {
		if a.TotalCores() == 0 {
			continue
		}
		d, err := vb.DemandFromApp(a)
		if err != nil {
			return nil, err
		}
		arrivals = append(arrivals, vb.AppArrival{Demand: d, VMs: a.VMs})
	}
	sort.Slice(arrivals, func(i, j int) bool {
		return arrivals[i].Demand.Start.Before(arrivals[j].Demand.Start)
	})
	return assembleScenario(policy, reg, actual, bundles, clusterCfg, arrivals), nil
}

// scenarioApps generates the daemon's application stream: the legacy
// two-class synthetic workload by default, or an SLO cohort trace when a
// -workload spec file is given. A cohort spec is used as given — its own
// seed, arrival rate, and window apply — so it should start at the
// scenario anchor (2020-05-01) for arrivals to land inside the timeline.
func scenarioApps(seed uint64, days int, appsPerDay float64, workloadSpec string) ([]vb.App, error) {
	if workloadSpec != "" {
		spec, err := vb.LoadTraceSpec(workloadSpec)
		if err != nil {
			return nil, err
		}
		return vb.GenerateCohortApps(*spec)
	}
	return vb.GenerateApps(vb.AppConfig{
		Seed:           seed,
		Start:          scenarioStart,
		Duration:       time.Duration(days) * 24 * time.Hour,
		MeanAppsPerDay: appsPerDay,
		MeanVMsPerApp:  60,
		StableFraction: 0.7,
	})
}

func assembleScenario(policy vb.Policy, reg *vb.MetricsRegistry, actual []vb.Series, bundles []*vb.Bundle, clusterCfg vb.ClusterConfig, arrivals []vb.AppArrival) *scenario {
	return &scenario{
		cfg: vb.SchedulerConfig{
			Policy:         policy,
			PlanStep:       planStep,
			UtilTarget:     0.7,
			MaxSitesPerApp: 3,
			Obs:            reg,
		},
		in: vb.SimInput{
			Actual:     actual,
			Bundles:    bundles,
			TotalCores: float64(clusterCfg.TotalCores()),
			Obs:        reg,
		},
		clusterCfg: clusterCfg,
		reg:        reg,
		arrivals:   arrivals,
	}
}

// applyFaults compiles a -faults argument (a compact spec, or @path to a
// JSON script file) against the scenario's dimensions and threads the
// injector into the engines. Faults become part of the deterministic run
// identity: the same seed + the same script reproduce the same decisions,
// and snapshots record the script's hash so a restore under a different
// script is rejected.
func (s *scenario) applyFaults(spec string) error {
	if spec == "" {
		return nil
	}
	script, err := vb.ParseFaultArg(spec)
	if err != nil {
		return err
	}
	inj, err := vb.NewFaultInjector(script, len(s.in.Actual), s.in.Actual[0].Len())
	if err != nil {
		return err
	}
	s.in.Faults = inj
	return nil
}

// newEngine builds a fresh engine for the scenario, or restores one from a
// snapshot file when restorePath is set.
func (s *scenario) newEngine(restorePath string) (*vb.VMEngine, error) {
	if restorePath == "" {
		return vb.NewVMEngine(s.cfg, s.in, s.clusterCfg)
	}
	f, err := os.Open(restorePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	eng, err := vb.RestoreVMEngine(s.cfg, s.in, s.clusterCfg, f)
	if err != nil {
		return nil, fmt.Errorf("restoring %s: %w", restorePath, err)
	}
	return eng, nil
}
