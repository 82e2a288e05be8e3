package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	vb "github.com/vbcloud/vb"
)

// The in-process workloads run vb.Table1PolicyComparison and
// vb.Fig4Migration as the two stages those runners are made of, each
// through public functions: set-up builds the inputs, and the body runs the
// simulation on them. Set-up is then timed on its own and its result is
// what the body consumes, and the traced mode can wrap each layer in a
// span. These anchors and parameters are the ones the two runners use; the
// golden Table 1 and the Fig 4a values pinned below check that the stages
// reproduce the runners' outputs.
var (
	table1Start     = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	experimentStart = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
)

const (
	table1Days = 7
	fig4aDays  = 28
	// fig4aSite is vb.EuropeanFleet's BE-wind site, the one Fig4Migration
	// drives with wind power.
	fig4aSite = 4
)

// Nominal seconds per pass at the commit the benchmark was written
// against, measured on a shared 2-CPU virtual machine. They size a run's fixed input set from --seconds, never
// from measured speed, so a faster program runs the same inputs.
const (
	table1PassSeconds = 0.7
	fig4aPassSeconds  = 1.5
)

// policyNames lists the Table 1 policies in the order the runner uses.
var policyNames = func() []string {
	var names []string
	for _, p := range vb.AllPolicies() {
		names = append(names, p.String())
	}
	return names
}()

// subSeeds derives a run's n input seeds from the workload seed. The first
// is the seed itself, so seed 42 covers the golden table.
func subSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = seed + uint64(i)*1000003
	}
	return out
}

// passesFor sizes a run: how many passes of nominal length fit in seconds.
func passesFor(seconds, perPass float64) int {
	n := int(seconds/perPass + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// buildTable1Input assembles the Table 1 inputs: the check that the
// European trio is a clique at 60 ms, the trio's hourly power windowed to
// the plan step, day-horizon forecast bundles, and the app stream. reg and
// tr may be nil.
func buildTable1Input(seed uint64, reg *vb.MetricsRegistry, tr *tracer, parent int) (vb.SimInput, error) {
	trio := vb.EuropeanTrio()
	err := tr.do("graph.cliques", parent, func() error {
		g, err := vb.NewGraph(trio, 60)
		if err != nil {
			return err
		}
		cl, err := g.Cliques(len(trio))
		if err == nil && len(cl) == 0 {
			err = fmt.Errorf("the European trio is not a clique at 60 ms")
		}
		return err
	})
	if err != nil {
		return vb.SimInput{}, err
	}
	w := vb.NewWorld(seed)
	w.Obs = reg
	var fine []vb.Series
	err = tr.do("energy.generate", parent, func() (err error) {
		fine, err = w.Generate(trio, table1Start, time.Hour, table1Days*24)
		return err
	})
	if err != nil {
		return vb.SimInput{}, err
	}
	fc := vb.NewForecaster(seed)
	fc.Obs = reg
	actual := make([]vb.Series, len(trio))
	bundles := make([]*vb.Bundle, len(trio))
	for i := range trio {
		err := tr.do("forecast.bundle", parent, func() (err error) {
			if actual[i], err = fine[i].WindowMin(vb.Table1PlanStep); err != nil {
				return err
			}
			if bundles[i], err = fc.NewBundle(actual[i], trio[i].Source, trio[i].Name); err != nil {
				return err
			}
			return bundles[i].UseFixedHorizon(vb.HorizonDay)
		})
		if err != nil {
			return vb.SimInput{}, err
		}
	}
	var demands []vb.AppDemand
	err = tr.do("workload.generate", parent, func() error {
		apps, err := vb.GenerateApps(vb.AppConfig{
			Seed:           seed + 1,
			Start:          table1Start,
			Duration:       table1Days * 24 * time.Hour,
			MeanAppsPerDay: 6,
			MeanVMsPerApp:  60,
			StableFraction: 0.7,
		})
		if err != nil {
			return err
		}
		for _, a := range apps {
			d, err := vb.DemandFromApp(a)
			if err != nil {
				return err
			}
			demands = append(demands, d)
		}
		return nil
	})
	if err != nil {
		return vb.SimInput{}, err
	}
	return vb.SimInput{
		Actual:     actual,
		Bundles:    bundles,
		TotalCores: float64(vb.DefaultClusterConfig().TotalCores()),
		Apps:       demands,
		Obs:        reg,
	}, nil
}

// table1Config is the scheduler configuration Table1PolicyComparison runs
// a policy with at its defaults.
func table1Config(pol vb.Policy, reg *vb.MetricsRegistry) vb.SchedulerConfig {
	return vb.SchedulerConfig{Policy: pol, PlanStep: vb.Table1PlanStep, UtilTarget: 0.7, MaxSitesPerApp: 3, Obs: reg}
}

// table1Row is the Table 1 row of one policy's result.
func table1Row(pol vb.Policy, r vb.SimResult) (vb.Table1Row, error) {
	total, p99, peak, std, err := r.Summary()
	if err != nil {
		return vb.Table1Row{}, err
	}
	return vb.Table1Row{
		Policy: pol, Total: total, P99: p99, Peak: peak, Std: std,
		ZeroFraction:          r.ZeroFraction(),
		PausedStableCoreSteps: r.PausedStableCoreSteps,
		MeanAvailability:      r.MeanAvailability(),
	}, nil
}

// table1Rows runs the four policies on in with vb.RunPolicy, as
// Table1PolicyComparison does after building its inputs.
func table1Rows(in vb.SimInput) ([]vb.Table1Row, error) {
	var rows []vb.Table1Row
	for _, pol := range vb.AllPolicies() {
		r, err := vb.RunPolicy(table1Config(pol, nil), in)
		if err != nil {
			return nil, fmt.Errorf("policy %v: %w", pol, err)
		}
		row, err := table1Row(pol, r)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// table1Traced runs the four policies on in through vb.NewSimEngine, one
// Advance per plan step inside a sim.advance span, each policy observed by
// its own registry. It returns the rows Table1PolicyComparison would.
func table1Traced(in vb.SimInput, tr *tracer, parent int) ([]vb.Table1Row, []*vb.MetricsRegistry, error) {
	var rows []vb.Table1Row
	var regs []*vb.MetricsRegistry
	apps := append([]vb.AppDemand(nil), in.Apps...)
	sort.Slice(apps, func(i, j int) bool { return apps[i].Start.Before(apps[j].Start) })
	for _, pol := range vb.AllPolicies() {
		reg := vb.NewMetrics()
		regs = append(regs, reg)
		pin := in
		pin.Obs = reg
		eng, err := vb.NewSimEngine(table1Config(pol, reg), pin)
		if err != nil {
			return nil, nil, err
		}
		next := 0
		for !eng.Done() {
			now := eng.Now()
			var arrivals []vb.AppDemand
			for next < len(apps) && !apps[next].Start.After(now) {
				arrivals = append(arrivals, apps[next])
				next++
			}
			id := tr.start("sim.advance", pol.String(), parent)
			_, err := eng.Advance(arrivals)
			tr.end(id)
			if err != nil {
				return nil, nil, err
			}
		}
		row, err := table1Row(pol, eng.Result())
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
	}
	return rows, regs, nil
}

// table1Fingerprint is the exact text of a Table 1 result: its report and
// every row at full precision.
func table1Fingerprint(seed uint64, rows []vb.Table1Row) string {
	return fmt.Sprintf("seed %d %v\n%s", seed, rows, vb.Table1Result{Rows: rows}.Report())
}

// buildFig4aInput generates Fig4Migration's inputs: 28 days of 15-minute
// wind power at one site and the Azure-like VM trace. reg and tr may be nil.
func buildFig4aInput(seed uint64, reg *vb.MetricsRegistry, tr *tracer, parent int) (vb.Series, []vb.VM, error) {
	site := vb.EuropeanFleet(0)[fig4aSite]
	if site.Name != "BE-wind" {
		return vb.Series{}, nil, fmt.Errorf("fleet site %d is %s, want BE-wind", fig4aSite, site.Name)
	}
	w := vb.NewWorld(seed)
	w.Obs = reg
	var power []vb.Series
	err := tr.do("energy.generate", parent, func() (err error) {
		power, err = w.Generate([]vb.SiteConfig{site}, experimentStart, 15*time.Minute, fig4aDays*96)
		return err
	})
	if err != nil {
		return vb.Series{}, nil, err
	}
	var vms []vb.VM
	err = tr.do("workload.generate", parent, func() (err error) {
		vms, err = vb.GenerateVMs(vb.WorkloadConfig{
			Seed:                seed,
			Start:               experimentStart.Add(-24 * time.Hour),
			Duration:            (fig4aDays + 1) * 24 * time.Hour,
			MeanArrivalsPerHour: 60,
			StableFraction:      0.7,
			LongRunningFraction: 0.3,
			MedianLifetime:      6 * time.Hour,
		})
		return err
	})
	return power[0], vms, err
}

// fig4aOut is the part of a Fig 4a result the benchmark checks.
type fig4aOut struct{ InGB, OutGB, Quiet float64 }

func (o fig4aOut) String() string {
	return fmt.Sprintf("in=%v out=%v quiet=%v", o.InGB, o.OutGB, o.Quiet)
}

func fig4aOf(run vb.ClusterRunResult) fig4aOut {
	return fig4aOut{run.TotalInGB(), run.TotalOutGB(), run.FractionQuietChanges()}
}

// fig4aAtParent holds Fig4Migration's outputs for the first sub-seeds of
// seed 42, taken at the commit the benchmark was written against.
var fig4aAtParent = map[uint64]fig4aOut{
	42:      {InGB: 2.425952e+06, OutGB: 2.464328e+06, Quiet: 0.7328007101642254},
	1000045: {InGB: 2.453546e+06, OutGB: 2.500654e+06, Quiet: 0.7405639913232104},
	2000048: {InGB: 3.417604e+06, OutGB: 3.4152e+06, Quiet: 0.7495642068564788},
	3000051: {InGB: 2.96175e+06, OutGB: 2.941234e+06, Quiet: 0.7359611231101512},
}

// memSample is the allocation state around one pass.
type memSample struct {
	alloc      uint64
	numGC      uint32
	pauseTotal uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}

// inProcRun is what an untraced in-process run measured.
type inProcRun struct {
	setup     []float64 // each seed's fastest input build, seconds
	pass      []float64 // each seed's fastest body, seconds
	allocMB   []float64 // each seed's smallest body allocation, MB
	attempted int
	failed    int
	outputs   []string // one output per seed, in sub-seed order
}

// passRounds is how many times a run goes over its input set. Other load
// on the machine only ever adds time, and it comes and goes over tens of
// seconds, so every seed runs once per round and keeps its fastest set-up
// and body.
const passRounds = 2

// measureInProc runs every sub-seed once per round: a forced collection, so
// one pass's garbage is not billed to the next, then set-up, which builds
// the seed's inputs, then the body on exactly those inputs. A failed pass,
// a wrong output or a round that disagrees with the first is counted, not
// fatal.
func measureInProc[T any](seeds []uint64, setup func(uint64) (T, error), body func(T) (string, error), check func(uint64, string) error) inProcRun {
	r := inProcRun{
		setup:   make([]float64, len(seeds)),
		pass:    make([]float64, len(seeds)),
		allocMB: make([]float64, len(seeds)),
		outputs: make([]string, len(seeds)),
	}
	for i := range seeds {
		r.setup[i], r.pass[i], r.allocMB[i] = math.Inf(1), math.Inf(1), math.Inf(1)
	}
	for round := 0; round < passRounds; round++ {
		for i, s := range seeds {
			r.attempted++
			runtime.GC()
			t0 := time.Now()
			in, err := setup(s)
			setupS := time.Since(t0).Seconds()
			if err != nil {
				r.failed++
				fmt.Fprintf(os.Stderr, "setup seed %d: %v\n", s, err)
				continue
			}
			m0 := readMem()
			t1 := time.Now()
			out, err := body(in)
			dt := time.Since(t1).Seconds()
			m1 := readMem()
			if err == nil {
				err = check(s, out)
			}
			if err == nil && round > 0 && out != r.outputs[i] {
				err = fmt.Errorf("round %d output differs from round 0", round)
			}
			if err != nil {
				r.failed++
				fmt.Fprintf(os.Stderr, "seed %d: %v\n", s, err)
			}
			if round == 0 {
				r.outputs[i] = out
			}
			r.setup[i] = math.Min(r.setup[i], setupS)
			r.pass[i] = math.Min(r.pass[i], dt)
			r.allocMB[i] = math.Min(r.allocMB[i], float64(m1.alloc-m0.alloc)/1e6)
		}
	}
	return r
}

// report fills the common end-to-end metrics of an in-process run; central
// reduces the per-pass times and allocations to one value.
func (r inProcRun) report(rep *report, central func([]float64) float64) {
	rep.setMedian("setup_s", "s", r.setup)
	rep.set("wall_s", "s", central(r.pass), len(r.pass))
	rep.set("alloc_mb", "MB", central(r.allocMB), len(r.allocMB))
	rep.set("peak_rss_mb", "MB", peakRSSMB(os.Getpid()), 1)
	rep.set("failed_frac", "ratio", float64(r.failed)/float64(r.attempted), r.attempted)
}

// runTable1 measures table1-week, vb.Table1PolicyComparison at its
// defaults with obs off, over the run's sub-seeds: set-up builds the
// inputs, the body runs the four policies on them.
func runTable1(seed uint64, seconds float64, rep *report) (inProcRun, error) {
	golden, err := os.ReadFile(filepath.Join("testdata", "table1_seed.golden"))
	if err != nil {
		return inProcRun{}, fmt.Errorf("reading the Table 1 golden file: %w", err)
	}
	seeds := subSeeds(seed, passesFor(seconds/passRounds, table1PassSeconds))
	r := measureInProc(seeds,
		func(s uint64) (table1Pass, error) {
			in, err := buildTable1Input(s, nil, nil, 0)
			return table1Pass{s, in}, err
		},
		func(p table1Pass) (string, error) {
			rows, err := table1Rows(p.in)
			if err != nil {
				return "", err
			}
			return table1Fingerprint(p.seed, rows), nil
		},
		func(s uint64, out string) error {
			if s != vb.DefaultSeed {
				return nil
			}
			if !strings.HasSuffix(out, string(golden)) {
				return fmt.Errorf("Table 1 at seed %d differs from testdata/table1_seed.golden:\n%s", s, out)
			}
			return nil
		})
	// A seed's cost varies about ±25% with its apps and solver work, so a
	// pass is the mean over the fixed input set: a median would hide a
	// change to the costly seeds.
	r.report(rep, mean)
	return r, nil
}

type table1Pass struct {
	seed uint64
	in   vb.SimInput
}

type fig4aPass struct {
	seed  uint64
	power vb.Series
	vms   []vb.VM
}

// runFig4a measures fig4a-month, vb.Fig4Migration(seed, Wind, 28), over the
// run's sub-seeds: set-up generates the power and the VM trace, the body is
// the vb.RunCluster call on them.
func runFig4a(seed uint64, seconds float64, rep *report) (inProcRun, error) {
	seeds := subSeeds(seed, passesFor(seconds/passRounds, fig4aPassSeconds))
	r := measureInProc(seeds,
		func(s uint64) (fig4aPass, error) {
			power, vms, err := buildFig4aInput(s, nil, nil, 0)
			return fig4aPass{s, power, vms}, err
		},
		func(p fig4aPass) (string, error) {
			run, err := vb.RunCluster(vb.DefaultClusterConfig(), p.power, p.vms, 96)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("seed %d %v", p.seed, fig4aOf(run)), nil
		},
		func(s uint64, out string) error {
			want, ok := fig4aAtParent[s]
			if !ok {
				return nil
			}
			if w := fmt.Sprintf("seed %d %v", s, want); out != w {
				return fmt.Errorf("Fig 4a changed: got %s, want %s", out, w)
			}
			return nil
		})
	// Seeds differ by about 6% here, less than the machine's own drift, so
	// the median pass is the steadier summary.
	r.report(rep, median)
	return r, nil
}
