package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os/exec"
	"strconv"
	"strings"
)

// minPairs is how many parent/change pairs compare runs, and the fewest a
// gain may rest on.
const minPairs = 10

// Compare-mode results for one metric.
const (
	resultGain       = "gain"
	resultRegression = "regression"
	resultUnresolved = "unresolved"
	resultHolds      = "no regression"
)

// verdict is the A/B judgement of one metric over paired runs.
type verdict struct {
	Metric           string
	BaseMed, HeadMed float64
	BaseQ1, BaseQ3   float64
	HeadQ1, HeadQ3   float64
	Wins, Pairs      int
	Result           string
}

// judge applies the paired-run rules to one metric. base[i] and head[i]
// ran back to back. A gain needs at least minPairs pairs, wins in nine
// tenths of them (ties count for neither) and a median gap wider than the
// parent's interquartile range. Otherwise the change must not be worse than
// the parent's median by more than the bound; where either side's spread
// exceeds the bound the metric is unresolved, unless every change run beats
// every parent run.
func judge(def metricDef, base, head []float64) verdict {
	better := func(a, b float64) bool {
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	v := verdict{Metric: def.Name, Pairs: len(base), BaseMed: median(base), HeadMed: median(head)}
	v.BaseQ1, v.BaseQ3 = quartiles(base)
	v.HeadQ1, v.HeadQ3 = quartiles(head)
	for i := range base {
		if better(head[i], base[i]) {
			v.Wins++
		}
	}
	gain := v.HeadMed - v.BaseMed // improvement when positive
	if def.Better != "higher" {
		gain = -gain
	}
	everyRunBetter := true
	for _, h := range head {
		for _, b := range base {
			everyRunBetter = everyRunBetter && better(h, b)
		}
	}
	switch {
	case v.Pairs >= minPairs && v.Wins*10 >= 9*v.Pairs && gain > v.BaseQ3-v.BaseQ1:
		v.Result = resultGain
	case everyRunBetter:
		v.Result = resultHolds
	case spread(base) > def.Bound || spread(head) > def.Bound:
		v.Result = resultUnresolved
	case -gain > def.Bound*math.Abs(v.BaseMed):
		v.Result = resultRegression
	default:
		v.Result = resultHolds
	}
	return v
}

// sideRun is one benchmark run of one checkout.
type sideRun struct {
	metrics map[string]metric
	failed  int
}

// runSide runs a checkout's benchmark once and reads its detail line, which
// carries every end-to-end metric, and its result line.
func runSide(dir, workload string, seed uint64, seconds int) (sideRun, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("bash", "vbbench/run.sh", "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return sideRun{}, fmt.Errorf("benchmark in %s: %w\n%s", dir, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r sideRun
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return sideRun{}, fmt.Errorf("benchmark in %s: result line: %w", dir, err)
	}
	r.failed = res.Failed
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &r.metrics); err != nil {
				return sideRun{}, fmt.Errorf("benchmark in %s: detail line: %w", dir, err)
			}
		}
	}
	if r.metrics == nil {
		return sideRun{}, fmt.Errorf("benchmark in %s printed no detail line", dir)
	}
	return r, nil
}

// compare runs the parent (base) and change (head) checkouts in minPairs
// pairs, alternating which runs first, and judges every end-to-end metric.
func compare(w io.Writer, baseDir, headDir, workload string, seed uint64, seconds int) error {
	defs := commonMetrics
	if workload == "serve-replay" {
		defs = append(append([]metricDef(nil), commonMetrics...), serveMetrics...)
	}
	base := map[string][]float64{}
	head := map[string][]float64{}
	var baseFailed, headFailed int
	for i := 0; i < minPairs; i++ {
		s := seed + uint64(i)
		order := []string{baseDir, headDir}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, dir := range order {
			r, err := runSide(dir, workload, s, seconds)
			if err != nil {
				return err
			}
			into := base
			if dir == headDir {
				into, headFailed = head, headFailed+r.failed
			} else {
				baseFailed += r.failed
			}
			for _, d := range defs {
				into[d.Name] = append(into[d.Name], r.metrics[d.Name].Value)
			}
		}
		fmt.Fprintf(w, "pair %d/%d done (seed %d)\n", i+1, minPairs, s)
	}
	fmt.Fprintf(w, "%s: %d pairs, failed operations parent %d, change %d\n", workload, minPairs, baseFailed, headFailed)
	fmt.Fprintf(w, "  %-16s %-6s %12s %25s %12s %25s %6s  %s\n",
		"metric", "unit", "parent p50", "parent [q1, q3]", "change p50", "change [q1, q3]", "wins", "result")
	for _, d := range defs {
		v := judge(d, base[d.Name], head[d.Name])
		if v.Result == resultGain && headFailed > baseFailed {
			v.Result = "gain not counted: more failed operations"
		}
		fmt.Fprintf(w, "  %-16s %-6s %12.6g [%11.6g, %11.6g] %12.6g [%11.6g, %11.6g] %2d/%-3d  %s\n",
			d.Name, d.Unit, v.BaseMed, v.BaseQ1, v.BaseQ3, v.HeadMed, v.HeadQ1, v.HeadQ3, v.Wins, v.Pairs, v.Result)
	}
	return nil
}
