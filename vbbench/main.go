// Command vbbench is the repository's end-to-end benchmark. It runs three
// workloads through the program's public entry points, checks their
// outputs, and prints every end-to-end metric with its unit and sample
// count; a traced mode splits the time into per-layer self times. See
// README.md in this directory for the workloads, metrics and layer map.
//
// Run it from the repository root through run.sh, which builds it and the
// vbserve daemon from source:
//
//	bash vbbench/run.sh --workload table1-week --seed 42 --seconds 40 --trace 0
//	bash vbbench/run.sh --workload fig4a-month --trace 1
//	bash vbbench/run.sh --compare --base ../parent --head . --workload table1-week
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// detailPrefix starts the line that carries every measured metric with its
// sample count; the last line carries only the ones BENCHMARK.json lists.
const detailPrefix = "detail "

var workloads = []string{"table1-week", "fig4a-month", "serve-replay"}

func main() {
	out := bufio.NewWriter(os.Stdout)
	err := run(out)
	out.Flush()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbbench:", err)
		os.Exit(1)
	}
}

// run parses the flags and makes one run, or one comparison. The result
// line is printed only when every metric was measured.
func run(out *bufio.Writer) error {
	var (
		workload = flag.String("workload", "table1-week", "workload: table1-week, fig4a-month or serve-replay")
		seed     = flag.Uint64("seed", 42, "workload seed; the program receives only the inputs generated from it")
		seconds  = flag.Int("seconds", 40, "measuring time, which sizes the run's fixed input set")
		traced   = flag.Int("trace", 0, "1 = traced mode: the per-layer ledger of every workload")
		vbserve  = flag.String("vbserve", filepath.Join(".bench_build", "bin", "vbserve"), "vbserve binary built from this checkout")
		cmp      = flag.Bool("compare", false, "A/B mode: run the -base and -head checkouts in alternating pairs")
		baseDir  = flag.String("base", "", "compare: parent checkout")
		headDir  = flag.String("head", ".", "compare: change checkout")
	)
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *cmp {
		if *baseDir == "" {
			return fmt.Errorf("-compare needs -base")
		}
		return compare(out, *baseDir, *headDir, *workload, *seed, *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	fmt.Fprintf(out, "vbbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d NumCPU=%d\n",
		*workload, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.NumCPU())

	rep := newReport()
	var attempted, failed int
	var names []string
	if *traced == 1 {
		attempted, failed, err = runTraced(out, *workload, *seed, *vbserve, work, rep)
		for _, nu := range perLayerNames() {
			names = append(names, nu[0])
		}
	} else {
		attempted, failed, err = runWorkload(out, *workload, *seed, float64(*seconds), *vbserve, work, rep)
		names = defNames(commonMetrics)
	}
	if err != nil {
		return err
	}
	rep.printTable(out)
	detail, err := json.Marshal(rep.m)
	if err != nil {
		return err
	}
	line, err := rep.resultLine(names, attempted, failed, failed == 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s%s\n%s\n", detailPrefix, detail, line)
	return nil
}

// runWorkload makes one untraced run and prints the output fingerprint.
func runWorkload(out *bufio.Writer, workload string, seed uint64, seconds float64, bin, work string, rep *report) (attempted, failed int, err error) {
	var fp string
	switch workload {
	case "table1-week", "fig4a-month":
		var r inProcRun
		if workload == "table1-week" {
			r, err = runTable1(seed, seconds, rep)
		} else {
			r, err = runFig4a(seed, seconds, rep)
		}
		if err != nil {
			return 0, 0, err
		}
		attempted, failed = r.attempted, r.failed
		fp = fingerprint(r.outputs)
		if workload == "fig4a-month" {
			for _, o := range r.outputs {
				fmt.Fprintln(out, "fig4a", o)
			}
		}
	case "serve-replay":
		attempted, failed, fp, err = runServe(bin, work, seed, seconds, rep)
		if err != nil {
			return 0, 0, err
		}
	}
	fmt.Fprintf(out, "fingerprint %s seed=%d %s\n", workload, seed, fp)
	return attempted, failed, nil
}

// runTraced builds the per-layer ledger of every workload, the requested
// one first, each with its own tracer, and writes each workload's spans to
// .bench_build/spans/. Every traced run reports every per-layer metric, so
// it covers all three workloads.
func runTraced(out *bufio.Writer, workload string, seed uint64, bin, work string, rep *report) (attempted, failed int, err error) {
	order := append([]string{workload}, workloads...)
	done := map[string]bool{}
	for _, w := range order {
		if done[w] {
			continue
		}
		done[w] = true
		tr := newTracer()
		var a, f int
		switch w {
		case "table1-week":
			a, f, err = traceTable1(out, tr, seed, rep)
		case "fig4a-month":
			a, f, err = traceFig4a(out, tr, seed, rep)
		case "serve-replay":
			a, f, err = traceServe(out, tr, bin, work, seed, rep)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", w, err)
		}
		attempted += a
		failed += f
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w, seed))
		if err := tr.write(path); err != nil {
			return 0, 0, err
		}
		fmt.Fprintf(out, "%d spans written to %s\n", len(tr.spans), path)
	}
	return attempted, failed, nil
}

// fingerprint hashes a run's outputs, so two commits can be checked for
// identical results at any seed.
func fingerprint(outputs []string) string {
	h := sha256.New()
	for _, o := range outputs {
		fmt.Fprintln(h, o)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
