// Command abgate is a same-runner A/B wall-time gate for the root
// package's benchmarks.
//
// It builds the root test binary of a base checkout and of a head checkout
// with `go test -c`, then runs both in 5 alternating pairs (base first in
// even pairs, head first in odd ones) of BenchmarkMIPSolve,
// BenchmarkMIPSolveCold and BenchmarkTable1PolicyComparison at a fixed
// -benchtime of 1s, collects each benchmark's ns/op per run, and prints
// each side's median and quartiles. Because both sides run on the same
// machine in the same minutes, no committed baseline is needed.
//
// It fails (exit 1) only on a clear slowdown: a benchmark whose head median
// is more than 25% above its base median and whose every head run is
// slower than every base run. Anything else, noise included, passes.
//
// Usage, from the head checkout:
//
//	mkdir ../base && git archive <base-sha> | tar -x -C ../base
//	go run ./scripts/abgate -base ../base -head .
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The gate's fixed settings.
const (
	pairs     = 5
	benchtime = "1s"
	maxSlower = 0.25 // largest tolerated head median slowdown, as a fraction of the base median
)

var benchmarks = []string{"BenchmarkMIPSolve", "BenchmarkMIPSolveCold", "BenchmarkTable1PolicyComparison"}

func main() {
	var (
		base = flag.String("base", "", "base checkout (required)")
		head = flag.String("head", ".", "head checkout")
	)
	flag.Parse()
	if *base == "" {
		fmt.Fprintln(os.Stderr, "abgate: -base is required")
		os.Exit(2)
	}
	res, err := run(*base, *head)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abgate:", err)
		os.Exit(2)
	}
	if !report(os.Stdout, res) {
		os.Exit(1)
	}
}

// sides holds every run's ns/op per benchmark: index 0 base, 1 head.
type sides map[string][2][]float64

var sideNames = [2]string{"base", "head"}

// run builds both test binaries in a temporary directory and runs the
// alternating pairs.
func run(base, head string) (sides, error) {
	work, err := os.MkdirTemp("", "abgate")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	dirs := [2]string{base, head}
	var bins [2]string
	for i, side := range sideNames {
		abs, err := filepath.Abs(dirs[i])
		if err != nil {
			return nil, err
		}
		dirs[i] = abs
		bins[i] = filepath.Join(work, side+".test")
		cmd := exec.Command("go", "test", "-c", "-o", bins[i], ".")
		cmd.Dir = abs
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("building the %s test binary in %s: %w", side, abs, err)
		}
	}
	pattern := "^(" + strings.Join(benchmarks, "|") + ")$"
	res := sides{}
	for p := 0; p < pairs; p++ {
		order := []int{0, 1}
		if p%2 == 1 {
			order = []int{1, 0}
		}
		for _, s := range order {
			cmd := exec.Command(bins[s], "-test.run", "^$", "-test.bench", pattern, "-test.benchtime", benchtime, "-test.timeout", "30m")
			cmd.Dir = dirs[s]
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("pair %d, %s: %w", p, sideNames[s], err)
			}
			got := parseNsPerOp(strings.NewReader(string(out)))
			for _, n := range benchmarks {
				v, ok := got[n]
				if !ok {
					return nil, fmt.Errorf("pair %d, %s: no ns/op for %s", p, sideNames[s], n)
				}
				r := res[n]
				r[s] = append(r[s], v)
				res[n] = r
			}
		}
	}
	return res, nil
}

var procSuffix = regexp.MustCompile(`-\d+$`)

// parseNsPerOp reads `go test -bench` output and returns each benchmark's
// ns/op, keyed by name without the -GOMAXPROCS suffix.
func parseNsPerOp(r io.Reader) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		for i := 2; i < len(f); i++ {
			if f[i] == "ns/op" {
				if v, err := strconv.ParseFloat(f[i-1], 64); err == nil {
					out[procSuffix.ReplaceAllString(f[0], "")] = v
				}
				break
			}
		}
	}
	return out
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// summary is one side's median and quartiles.
type summary struct{ q1, median, q3 float64 }

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

// slower reports whether head is clearly slower than base: its median more
// than maxSlower above base's, and every head run slower than every base
// run.
func slower(base, head []float64) bool {
	b, h := summarize(base), summarize(head)
	if h.median <= b.median*(1+maxSlower) {
		return false
	}
	maxBase := base[0]
	for _, v := range base {
		maxBase = max(maxBase, v)
	}
	for _, v := range head {
		if v <= maxBase {
			return false
		}
	}
	return true
}

// report prints one line per benchmark and returns false when any
// benchmark is clearly slower at head.
func report(w io.Writer, res sides) bool {
	ok := true
	fmt.Fprintf(w, "%-34s %-36s %-36s %8s  %s\n", "ns/op", "base median [q1, q3]", "head median [q1, q3]", "change", "verdict")
	for _, n := range benchmarks {
		r := res[n]
		b, h := summarize(r[0]), summarize(r[1])
		verdict := "ok"
		if slower(r[0], r[1]) {
			verdict = fmt.Sprintf("SLOWER (median > +%.0f%% and every head run slower than every base run)", 100*maxSlower)
			ok = false
		}
		fmt.Fprintf(w, "%-34s %-36s %-36s %+7.1f%%  %s\n", n,
			fmt.Sprintf("%.0f [%.0f, %.0f]", b.median, b.q1, b.q3),
			fmt.Sprintf("%.0f [%.0f, %.0f]", h.median, h.q1, h.q3),
			100*(h.median/b.median-1), verdict)
	}
	return ok
}
