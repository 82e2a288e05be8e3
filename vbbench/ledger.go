package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	vb "github.com/vbcloud/vb"
)

// Ledger layers per workload, named after the repository's modules. A
// layer's self time is the time inside its calls minus the time of the
// layers it calls: benchmark spans give the outer layers, and the
// program's registry histograms (scheduler.place, mip.solve) split the
// time inside a step. "harness" is the benchmark's own glue.
var (
	table1Layers = []string{"graph", "energy", "forecast", "workload", "sim", "core", "mip", "harness"}
	fig4aLayers  = []string{"energy", "workload", "cluster", "harness"}
	// serve: HTTP/JSON ingest of arrivals; the engine step outside the
	// scheduler (HTTP, VM packing, reconcile, JSON encoding); the
	// scheduler; the solver; the three reads.
	serveLayers = []string{"ingest", "engine", "core", "mip", "state", "snapshot", "obs", "harness"}
)

// traceSeeds is how many sub-seeds the traced Table 1 run covers: two give
// 224 engine steps, enough to resolve the step p95.
const traceSeeds = 2

// schedTotals sums the scheduler, solver and LP counters of registries.
type schedTotals struct {
	placeS, placements, fallbacks         float64
	solveS, solves, nodes, hits, misses   float64
	pivots, refactors, failedVMPlacements float64
}

func (t *schedTotals) add(s vb.MetricsSnapshot) {
	t.placeS += s.Histograms["scheduler.place"].Sum
	t.placements += s.Counters["scheduler.placements"]
	t.fallbacks += s.Counters["scheduler.fallback.count"]
	t.solveS += s.Histograms["mip.solve"].Sum
	t.solves += float64(s.Histograms["mip.solve"].Count)
	t.nodes += s.Counters["mip.nodes"]
	t.hits += s.Counters["mip.warmstart.hits"]
	t.misses += s.Counters["mip.warmstart.misses"]
	t.pivots += s.Counters["lp.pivots"]
	t.refactors += s.Counters["lp.refactor.count"]
	t.failedVMPlacements += s.Counters["sim.vmlevel.failed_placements"]
}

func (t schedTotals) report(rep *report, prefix string) {
	rep.set(prefix+"core.place_s", "s", t.placeS, int(t.placements))
	rep.set(prefix+"core.placements", "count", t.placements, 1)
	rep.set(prefix+"core.fallbacks", "count", t.fallbacks, 1)
	rep.set(prefix+"mip.solve_s", "s", t.solveS, int(t.solves))
	rep.set(prefix+"mip.solves", "count", t.solves, 1)
	rep.set(prefix+"mip.nodes", "count", t.nodes, 1)
	rep.set(prefix+"mip.warm_hit_ratio", "ratio", ratio(t.hits, t.hits+t.misses), int(t.hits+t.misses))
	rep.set(prefix+"lp.pivots", "count", t.pivots, 1)
	rep.set(prefix+"lp.pivots_per_solve", "count", ratio(t.pivots, t.solves), int(t.solves))
	rep.set(prefix+"lp.refactors", "count", t.refactors, 1)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledger reports each layer's self time as a metric and prints the layers
// by share of the traced time, naming the top three.
func ledger(w io.Writer, rep *report, prefix, workload string, layers []string, self map[string]float64) {
	var total float64
	for _, l := range layers {
		total += self[l]
		rep.set(prefix+l+".self_s", "s", self[l], 1)
	}
	order := append([]string(nil), layers...)
	sort.SliceStable(order, func(i, j int) bool { return self[order[i]] > self[order[j]] })
	fmt.Fprintf(w, "ledger %s: self time by layer (traced total %.4f s)\n", workload, total)
	for _, l := range order {
		fmt.Fprintf(w, "  %-10s %10.4f s %6.1f%%\n", l, self[l], 100*ratio(self[l], total))
	}
	fmt.Fprintf(w, "  top three: %s, %s, %s\n", order[0], order[1], order[2])
}

// gcDelta reports the collections and pause time between two samples.
func gcDelta(rep *report, prefix string, m0, m1 memSample) {
	rep.set(prefix+"runtime.gc_cycles", "count", float64(m1.numGC-m0.numGC), 1)
	rep.set(prefix+"runtime.gc_pause_s", "s", float64(m1.pauseTotal-m0.pauseTotal)/1e9, int(m1.numGC-m0.numGC))
}

// traceTable1 runs Table 1 untraced and then traced on the same sub-seeds:
// inputs rebuilt from public constructors inside graph/energy/forecast/
// workload spans, and every engine step inside a sim.advance span. The traced rows
// must equal the untraced ones.
func traceTable1(w io.Writer, tr *tracer, seed uint64, rep *report) (attempted, failed int, err error) {
	const p = "table1."
	seeds := subSeeds(seed, traceSeeds)
	want := map[uint64][]vb.Table1Row{}
	// The untraced passes run before and after the traced ones, so warm-up
	// does not land on one side of the overhead.
	untracedPasses := func() (secs float64, err error) {
		for _, s := range seeds {
			runtime.GC()
			t0 := time.Now()
			res, err := vb.Table1PolicyComparison(vb.Table1Setup{Seed: s})
			if err != nil {
				return 0, err
			}
			secs += time.Since(t0).Seconds()
			want[s] = res.Rows
		}
		return secs, nil
	}
	before, err := untracedPasses()
	if err != nil {
		return 0, 0, err
	}
	var sched schedTotals
	var samples, apps, traced float64
	runtime.GC()
	m0 := readMem()
	for _, s := range seeds {
		tr.run = fmt.Sprintf("table1-week/seed=%d", s)
		inReg := vb.NewMetrics()
		t0 := time.Now()
		root := tr.start("table1-week", "", 0)
		in, err := buildTable1Input(s, inReg, tr, root)
		if err != nil {
			return 0, 0, err
		}
		rows, regs, err := table1Traced(in, tr, root)
		if err != nil {
			return 0, 0, err
		}
		tr.end(root)
		traced += time.Since(t0).Seconds()
		attempted++
		if !reflect.DeepEqual(rows, want[s]) {
			failed++
			fmt.Fprintf(os.Stderr, "table1 seed %d: traced rows %v differ from untraced %v\n", s, rows, want[s])
		}
		samples += inReg.Counter("energy.samples")
		apps += float64(len(in.Apps))
		for _, r := range regs {
			sched.add(r.Snapshot())
		}
	}
	gcDelta(rep, p, m0, readMem())
	after, err := untracedPasses()
	if err != nil {
		return 0, 0, err
	}
	untraced := (before + after) / 2

	graphS, _, cliques := tr.durations("graph.cliques")
	energyS, _, gens := tr.durations("energy.generate")
	forecastS, _, bundles := tr.durations("forecast.bundle")
	workloadS, _, appGens := tr.durations("workload.generate")
	advanceS, byPolicy, steps := tr.durations("sim.advance")
	rep.set(p+"graph.cliques_s", "s", graphS, len(cliques))
	rep.set(p+"energy.generate_s", "s", energyS, len(gens))
	rep.set(p+"energy.samples", "count", samples, 1)
	rep.set(p+"forecast.bundle_s", "s", forecastS, len(bundles))
	rep.set(p+"forecast.bundles", "count", float64(len(bundles)), 1)
	rep.set(p+"workload.generate_s", "s", workloadS, len(appGens))
	rep.set(p+"workload.apps", "count", apps, 1)
	rep.set(p+"sim.advance_s", "s", advanceS, len(steps))
	for _, pol := range policyNames {
		rep.set(p+"sim.advance_s."+pol, "s", byPolicy[pol], len(steps)/len(policyNames))
	}
	ms := make([]float64, len(steps))
	for i, d := range steps {
		ms[i] = d * 1e3
	}
	rep.setPercentile(p+"sim.advance_p95_ms", "ms", ms, 95)
	rep.set(p+"sim.steps", "count", float64(len(steps)), 1)
	sched.report(rep, p)

	self := tr.selfSeconds()
	ledger(w, rep, p, "table1-week", table1Layers, map[string]float64{
		"graph":    self["graph.cliques"],
		"energy":   self["energy.generate"],
		"forecast": self["forecast.bundle"],
		"workload": self["workload.generate"],
		"sim":      self["sim.advance"] - sched.placeS,
		"core":     sched.placeS - sched.solveS,
		"mip":      sched.solveS,
		"harness":  self["table1-week"],
	})
	rep.set(p+"obs.trace_overhead_frac", "ratio", traced/untraced-1, len(seeds))
	return attempted, failed, nil
}

// traceFig4a runs Fig 4a untraced and then traced: inputs inside energy and
// workload spans, vb.RunCluster inside a cluster.run span. The traced
// in/out GB and quiet fraction must equal the untraced ones.
func traceFig4a(w io.Writer, tr *tracer, seed uint64, rep *report) (attempted, failed int, err error) {
	const p = "fig4a."
	var res vb.Fig4Result
	untracedPass := func() (float64, error) {
		runtime.GC()
		t0 := time.Now()
		var err error
		res, err = vb.Fig4Migration(seed, vb.Wind, fig4aDays)
		return time.Since(t0).Seconds(), err
	}
	before, err := untracedPass()
	if err != nil {
		return 0, 0, err
	}

	tr.run = fmt.Sprintf("fig4a-month/seed=%d", seed)
	reg := vb.NewMetrics()
	runtime.GC()
	m0 := readMem()
	t0 := time.Now()
	root := tr.start("fig4a-month", "", 0)
	power, vms, err := buildFig4aInput(seed, reg, tr, root)
	if err != nil {
		return 0, 0, err
	}
	var run vb.ClusterRunResult
	err = tr.do("cluster.run", root, func() (err error) {
		run, err = vb.RunCluster(vb.DefaultClusterConfig(), power, vms, 96)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	tr.end(root)
	traced := time.Since(t0).Seconds()
	gcDelta(rep, p, m0, readMem())
	after, err := untracedPass()
	if err != nil {
		return 0, 0, err
	}
	untraced := (before + after) / 2
	attempted = 1
	if got, want := fig4aOf(run), fig4aOf(res.Run); got != want {
		failed = 1
		fmt.Fprintf(os.Stderr, "fig4a seed %d: traced %v differs from untraced %v\n", seed, got, want)
	}

	var events, rejected, arrived float64
	for _, s := range run.Steps {
		events += float64(s.Evicted + s.Launched)
		rejected += float64(s.RejectedNew)
	}
	end := power.Start.Add(time.Duration(power.Len()) * power.Step)
	for _, vm := range vms {
		if !vm.Arrival.Before(power.Start) && vm.Arrival.Before(end) {
			arrived++
		}
	}
	energyS, _, gens := tr.durations("energy.generate")
	workloadS, _, vmGens := tr.durations("workload.generate")
	clusterS, _, runs := tr.durations("cluster.run")
	rep.set(p+"energy.generate_s", "s", energyS, len(gens))
	rep.set(p+"energy.samples", "count", reg.Counter("energy.samples"), 1)
	rep.set(p+"workload.generate_s", "s", workloadS, len(vmGens))
	rep.set(p+"workload.vms", "count", float64(len(vms)), 1)
	rep.set(p+"cluster.run_s", "s", clusterS, len(runs))
	rep.set(p+"cluster.vm_events", "count", events, 1)
	rep.set(p+"cluster.failed_placements", "count", rejected, 1)
	rep.set(p+"cluster.failed_ratio", "ratio", ratio(rejected, arrived), int(arrived))

	self := tr.selfSeconds()
	ledger(w, rep, p, "fig4a-month", fig4aLayers, map[string]float64{
		"energy":   self["energy.generate"],
		"workload": self["workload.generate"],
		"cluster":  self["cluster.run"],
		"harness":  self["fig4a-month"],
	})
	rep.set(p+"obs.trace_overhead_frac", "ratio", traced/untraced-1, 1)
	return attempted, failed, nil
}

// traceServe measures serve-replay's layers on one request log: the
// engine-only `vbserve -replay`, an untraced and a traced HTTP replay, and
// the daemon's time to ready when fresh and when restoring the snapshot
// taken halfway through the traced replay.
func traceServe(w io.Writer, tr *tracer, bin, work string, seed uint64, rep *report) (attempted, failed int, err error) {
	const p = "serve."
	in, err := prepareServe(bin, work, seed)
	if err != nil {
		return 0, 0, err
	}
	c := newClient()
	plain, err := runDaemonReplay(bin, c, in, nil, 0, nil)
	if err != nil {
		return 0, 0, err
	}
	tr.run = fmt.Sprintf("serve-replay/seed=%d", seed)
	steps := serveDays * 4
	half := steps / 2 / scrapeEvery * scrapeEvery
	// The traced replay reads the daemon's registry before it stops.
	var reg vb.MetricsSnapshot
	traced, err := runDaemonReplay(bin, c, in, tr, half, func(base string) (err error) {
		reg, err = registryOf(c, base)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	attempted = plain.attempted + traced.attempted
	failed = plain.failed + traced.failed
	if len(traced.snapshot) == 0 {
		return 0, 0, fmt.Errorf("no snapshot taken at step %d", half)
	}
	snapPath := filepath.Join(work, fmt.Sprintf("snapshot-%d.bin", seed))
	if err := os.WriteFile(snapPath, traced.snapshot, 0o644); err != nil {
		return 0, 0, err
	}
	fresh, err := readyTimes(bin, c, 3, scenarioArgs(seed)...)
	if err != nil {
		return 0, 0, err
	}
	restored, err := readyTimes(bin, c, 3, append([]string{"-restore", snapPath}, scenarioArgs(seed)...)...)
	if err != nil {
		return 0, 0, err
	}

	var sched schedTotals
	sched.add(reg)
	rep.set(p+"replay_s", "s", in.replayS, 1)
	rep.set(p+"http_overhead_s", "s", plain.wall-in.replayS, 1)
	rep.set(p+"request_bytes", "B", float64(plain.requestBytes), 1)
	rep.set(p+"decision_bytes", "B", float64(plain.decisionBytes), 1)
	rep.set(p+"snapshot.bytes", "B", float64(len(traced.snapshot)), 1)
	rep.setMedian(p+"snapshot.restore_ready_s", "s", restored)
	rep.setMedian(p+"snapshot.fresh_ready_s", "s", fresh)
	rep.setMedian(p+"obs.scrape_p50_ms", "ms", plain.lat["scrape"])
	sched.report(rep, p)
	rep.set(p+"cluster.failed_placements", "count", sched.failedVMPlacements, 1)
	rep.set(p+"cluster.failed_per_step", "count", sched.failedVMPlacements/float64(steps), steps)

	self := tr.selfSeconds()
	ledger(w, rep, p, "serve-replay", serveLayers, map[string]float64{
		"ingest":   self["http.arrive"],
		"engine":   self["http.step"] - sched.placeS,
		"core":     sched.placeS - sched.solveS,
		"mip":      sched.solveS,
		"state":    self["http.state"],
		"snapshot": self["http.snapshot"],
		"obs":      self["http.scrape"],
		"harness":  self["serve-replay"],
	})
	rep.set(p+"runtime.gc_cycles", "count", traced.gcCycles, 1)
	rep.set(p+"obs.trace_overhead_frac", "ratio", traced.wall/plain.wall-1, 1)
	return attempted, failed, nil
}
