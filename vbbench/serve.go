package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	vb "github.com/vbcloud/vb"
)

// The serve-replay scenario: 60 days (240 plan steps) under MIP-24h, the
// rolling-day policy a daemon plans with. Full-horizon MIP takes tens of
// seconds per replay at this length.
const (
	serveDays   = 60
	servePolicy = "MIP-24h"
	// serveReplaySeconds is the nominal cost of one HTTP replay including
	// daemon start and stop; it sizes a run like the in-process passes.
	serveReplaySeconds = 5.0
	// scrapeEvery is the read cadence: a snapshot and a /metrics scrape
	// every fourth step, as an operator's checkpoint and scrape would.
	scrapeEvery = 4
)

func scenarioArgs(seed uint64) []string {
	return []string{"-seed", strconv.FormatUint(seed, 10), "-days", strconv.Itoa(serveDays), "-policy", servePolicy}
}

// logOp is one request-log line; an arrive body is sent as recorded.
type logOp struct {
	Op      string          `json:"op"`
	Arrival json.RawMessage `json:"arrival"`
}

// serveInput is one request log and the engine-only decision log it must
// reproduce over HTTP.
type serveInput struct {
	seed      uint64
	ops       []logOp
	reference []byte
	replayS   float64 // wall time of the engine-only `vbserve -replay`
}

// prepareServe writes the request log with `vbserve -genlog` and the
// reference decision log with `vbserve -replay`.
func prepareServe(bin, work string, seed uint64) (serveInput, error) {
	logPath := filepath.Join(work, fmt.Sprintf("requests-%d.jsonl", seed))
	refPath := filepath.Join(work, fmt.Sprintf("decisions-%d.jsonl", seed))
	args := append([]string{"-genlog", "-out", logPath}, scenarioArgs(seed)...)
	if err := runQuiet(bin, args...); err != nil {
		return serveInput{}, err
	}
	t0 := time.Now()
	args = append([]string{"-replay", logPath, "-decisions", refPath}, scenarioArgs(seed)...)
	if err := runQuiet(bin, args...); err != nil {
		return serveInput{}, err
	}
	in := serveInput{seed: seed, replayS: time.Since(t0).Seconds()}
	var err error
	if in.reference, err = os.ReadFile(refPath); err != nil {
		return serveInput{}, err
	}
	raw, err := os.ReadFile(logPath)
	if err != nil {
		return serveInput{}, err
	}
	for i, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var op logOp
		if err := json.Unmarshal(line, &op); err != nil {
			return serveInput{}, fmt.Errorf("%s line %d: %w", logPath, i+1, err)
		}
		if op.Op != "arrive" && op.Op != "step" {
			return serveInput{}, fmt.Errorf("%s line %d: unknown op %q", logPath, i+1, op.Op)
		}
		in.ops = append(in.ops, op)
	}
	return in, nil
}

func runQuiet(bin string, args ...string) error {
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	return nil
}

// daemon is one running vbserve process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	stderr  bytes.Buffer
	exited  chan struct{} // closed once the process has been waited for
	waitErr error
}

// startDaemon starts vbserve on a free loopback port.
func startDaemon(bin string, args ...string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-listen", addr}, args...)...)
	d.cmd.Stderr = &d.stderr
	// The daemon must not outlive the benchmark, even one killed mid-run.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// waitReady polls /readyz and returns the seconds from process start until
// it answered 200.
func (d *daemon) waitReady(c *client) (float64, error) {
	deadline := d.started.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return 0, fmt.Errorf("vbserve exited before ready: %v\n%s", d.waitErr, d.stderr.String())
		default:
		}
		if status, _, err := c.get(d.base + "/readyz"); err == nil && status == http.StatusOK {
			return time.Since(d.started).Seconds(), nil
		}
		time.Sleep(time.Millisecond)
	}
	return 0, errors.New("vbserve not ready within 60 s")
}

// stop asks the daemon to drain and waits for it to exit, killing it if
// it does not within ten seconds.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// client is the benchmark's single closed-loop HTTP client: it holds one
// keep-alive connection and sends the next request only after the previous
// response has been read.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}}
}

// do sends one request and reads the whole response into the client's
// buffer, which stays valid until the next request.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *client) get(url string) (int, []byte, error) { return c.do(http.MethodGet, url, nil) }

// daemonMem reads the daemon's cumulative allocation and GC count from its
// heap profile header.
func daemonMem(c *client, base string) (totalAlloc, numGC float64, err error) {
	status, body, err := c.get(base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("heap profile: status %d", status)
	}
	fields := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			fields[k] = f
		}
	}
	ta, ok1 := fields["TotalAlloc"]
	gc, ok2 := fields["NumGC"]
	if !ok1 || !ok2 {
		return 0, 0, errors.New("heap profile has no TotalAlloc/NumGC header")
	}
	return ta, gc, nil
}

// peakRSSMB is a process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// replayResult is what one HTTP replay measured.
type replayResult struct {
	wall          float64
	lat           map[string][]float64 // milliseconds per request, by kind
	requestBytes  int
	decisionBytes int
	snapshot      []byte // the snapshot taken at keepSnapAt, if asked
	attempted     int
	failed        int
}

// replay drives a ready daemon through a request log: each arrival and step
// as a write, /v1/state after every step, and /v1/snapshot plus /metrics
// every scrapeEvery steps. Step responses are compared, in order, with the
// engine-only decision log. With a tracer every request is a span under
// one serve-replay root.
func replay(c *client, base string, in serveInput, tr *tracer, keepSnapAt int) replayResult {
	r := replayResult{lat: map[string][]float64{}}
	root := tr.start("serve-replay", "", 0)
	t0 := time.Now()
	request := func(kind, method, path string, body []byte, want int) []byte {
		id := tr.start("http."+kind, "", root)
		s := time.Now()
		status, resp, err := c.do(method, base+path, body)
		r.lat[kind] = append(r.lat[kind], float64(time.Since(s))/1e6)
		tr.end(id)
		r.attempted++
		if err != nil || status != want {
			r.failed++
			fmt.Fprintf(os.Stderr, "%s %s: status %d, %v\n", method, path, status, err)
			return nil
		}
		return resp
	}
	off, step := 0, 0
	for _, op := range in.ops {
		if op.Op == "arrive" {
			r.requestBytes += len(op.Arrival)
			request("arrive", http.MethodPost, "/v1/arrive", op.Arrival, http.StatusAccepted)
			continue
		}
		resp := request("step", http.MethodPost, "/v1/step", nil, http.StatusOK)
		r.decisionBytes += len(resp)
		if end := off + len(resp); resp != nil && (end > len(in.reference) || !bytes.Equal(resp, in.reference[off:end])) {
			r.failed++
			fmt.Fprintf(os.Stderr, "step %d: response differs from the vbserve -replay decision log\n", step)
		}
		off += len(resp)
		step++
		request("state", http.MethodGet, "/v1/state", nil, http.StatusOK)
		if step%scrapeEvery == 0 {
			snap := request("snapshot", http.MethodGet, "/v1/snapshot", nil, http.StatusOK)
			if step == keepSnapAt {
				r.snapshot = append([]byte(nil), snap...)
			}
			request("scrape", http.MethodGet, "/metrics", nil, http.StatusOK)
		}
	}
	r.wall = time.Since(t0).Seconds()
	tr.end(root)
	if off != len(in.reference) {
		r.failed++
		fmt.Fprintf(os.Stderr, "HTTP decisions total %d bytes, vbserve -replay wrote %d\n", off, len(in.reference))
	}
	return r
}

// serveRun is one daemon lifetime: start, ready, replay, stop.
type serveRun struct {
	setup, allocMB, rssMB, gcCycles float64
	replayResult
}

// runDaemonReplay replays in on a fresh daemon; after, when set, runs
// against the daemon once the replay is done.
func runDaemonReplay(bin string, c *client, in serveInput, tr *tracer, keepSnapAt int, after func(base string) error) (serveRun, error) {
	d, err := startDaemon(bin, scenarioArgs(in.seed)...)
	if err != nil {
		return serveRun{}, err
	}
	defer func() {
		d.stop()
		c.hc.CloseIdleConnections()
	}()
	var run serveRun
	if run.setup, err = d.waitReady(c); err != nil {
		return serveRun{}, err
	}
	a0, gc0, err := daemonMem(c, d.base)
	if err != nil {
		return serveRun{}, err
	}
	run.replayResult = replay(c, d.base, in, tr, keepSnapAt)
	a1, gc1, err := daemonMem(c, d.base)
	if err != nil {
		return serveRun{}, err
	}
	run.allocMB = (a1 - a0) / 1e6
	run.gcCycles = gc1 - gc0
	run.rssMB = peakRSSMB(d.cmd.Process.Pid)
	if after != nil {
		if err := after(d.base); err != nil {
			return serveRun{}, err
		}
	}
	return run, nil
}

// runServe measures serve-replay: fresh daemons replaying each of the run's
// request logs once per round, over one keep-alive connection. Like the
// in-process passes, a log keeps its best round, and a replay is the mean
// over the logs.
func runServe(bin, work string, seed uint64, seconds float64, rep *report) (attempted, failed int, fingerprint string, err error) {
	var inputs []serveInput
	h := sha256.New()
	for _, s := range subSeeds(seed, passesFor(seconds/passRounds, serveReplaySeconds)) {
		in, err := prepareServe(bin, work, s)
		if err != nil {
			return 0, 0, "", err
		}
		inputs = append(inputs, in)
		fmt.Fprintf(h, "seed %d %d\n", s, len(in.reference))
		h.Write(in.reference)
	}
	c := newClient()
	var setup []float64
	wall := make([]float64, len(inputs))
	alloc := make([]float64, len(inputs))
	rss := make([]float64, len(inputs))
	lat := map[string][]float64{}
	for round := 0; round < passRounds; round++ {
		for i, in := range inputs {
			run, err := runDaemonReplay(bin, c, in, nil, 0, nil)
			if err != nil {
				return 0, 0, "", err
			}
			setup = append(setup, run.setup)
			if round == 0 {
				wall[i], alloc[i], rss[i] = run.wall, run.allocMB, run.rssMB
			} else {
				wall[i] = math.Min(wall[i], run.wall)
				alloc[i] = math.Min(alloc[i], run.allocMB)
				rss[i] = math.Min(rss[i], run.rssMB)
			}
			for k, v := range run.lat {
				lat[k] = append(lat[k], v...)
			}
			attempted += run.attempted
			failed += run.failed
		}
	}
	rep.setMedian("setup_s", "s", setup)
	rep.set("wall_s", "s", mean(wall), len(wall))
	rep.set("alloc_mb", "MB", mean(alloc), len(alloc))
	rep.set("peak_rss_mb", "MB", mean(rss), len(rss))
	rep.set("failed_frac", "ratio", float64(failed)/float64(attempted), attempted)
	rep.setMedian("step_p50_ms", "ms", lat["step"])
	rep.setPercentile("step_p95_ms", "ms", lat["step"], 95)
	rep.setMedian("arrive_p50_ms", "ms", lat["arrive"])
	rep.setPercentile("arrive_p95_ms", "ms", lat["arrive"], 95)
	rep.setMedian("state_p50_ms", "ms", lat["state"])
	rep.setMedian("snapshot_p50_ms", "ms", lat["snapshot"])
	rep.setMedian("scrape_p50_ms", "ms", lat["scrape"])
	return attempted, failed, fmt.Sprintf("%x", h.Sum(nil)), nil
}

// registryOf reads the daemon registry's JSON snapshot.
func registryOf(c *client, base string) (vb.MetricsSnapshot, error) {
	var s vb.MetricsSnapshot
	status, body, err := c.get(base + "/snapshot")
	if err != nil {
		return s, err
	}
	if status != http.StatusOK {
		return s, fmt.Errorf("registry snapshot: status %d", status)
	}
	return s, json.Unmarshal(body, &s)
}

// readyTimes starts n daemons with the given extra flags and returns each
// one's seconds to ready.
func readyTimes(bin string, c *client, n int, args ...string) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		d, err := startDaemon(bin, args...)
		if err != nil {
			return nil, err
		}
		s, err := d.waitReady(c)
		d.stop()
		c.hc.CloseIdleConnections()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
