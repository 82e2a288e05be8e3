package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	vb "github.com/vbcloud/vb"
)

func testScenario(t *testing.T) *scenario {
	t.Helper()
	scn, err := buildScenario(42, 2, 6, vb.PolicyMIP, "")
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// driveHTTP sends the given operations to a daemon handler and returns the
// decision log as served by /v1/decisions.
func driveHTTP(t *testing.T, ts *httptest.Server, ops []requestOp) []byte {
	t.Helper()
	for _, op := range ops {
		var resp *http.Response
		var err error
		switch op.Op {
		case "arrive":
			body, _ := json.Marshal(op.Arrival)
			resp, err = http.Post(ts.URL+"/v1/arrive", "application/json", bytes.NewReader(body))
		case "step":
			resp, err = http.Post(ts.URL+"/v1/step", "application/json", nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode >= 300 {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: HTTP %d: %s", op.Op, resp.StatusCode, msg)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/decisions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestReplayMatchesHTTPDaemon pins the daemon's core determinism claim:
// replaying the recorded request log offline and streaming the same log
// through the HTTP daemon produce byte-identical decision logs.
func TestReplayMatchesHTTPDaemon(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "requests.jsonl")
	fullPath := filepath.Join(dir, "full.jsonl")

	scn := testScenario(t)
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRequestLog(f, scn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Offline replay.
	if err := replayLog(testScenario(t), logPath, fullPath, "", "", 0); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	steps := testScenario(t).in.Actual[0].Len()
	if got := strings.Count(string(full), "\n"); got != steps {
		t.Fatalf("decision log has %d lines, want %d", got, steps)
	}

	// HTTP daemon fed the same stream (fresh scenario = fresh process).
	ops, err := readRequestLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{scn: testScenario(t)}
	if d.eng, err = d.scn.newEngine(""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.handler())
	defer ts.Close()
	served := driveHTTP(t, ts, ops)
	if !bytes.Equal(served, full) {
		t.Fatalf("HTTP decision log diverges from offline replay:\nhttp: %d bytes\nfull: %d bytes", len(served), len(full))
	}
}

// TestSnapshotRestoreAcrossDaemons pins crash recovery end to end over the
// HTTP surface: run a daemon halfway, download its snapshot, restore it
// into a second daemon (a fresh scenario, standing in for a new process),
// finish the stream there, and the concatenated decision logs must be
// byte-identical to an uninterrupted run.
func TestSnapshotRestoreAcrossDaemons(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "requests.jsonl")
	fullPath := filepath.Join(dir, "full.jsonl")
	snapPath := filepath.Join(dir, "snap.bin")

	scn := testScenario(t)
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRequestLog(f, scn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := replayLog(testScenario(t), logPath, fullPath, "", "", 0); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	ops, err := readRequestLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Split the stream at the midpoint step boundary.
	mid := testScenario(t).in.Actual[0].Len() / 2
	cut := 0
	seen := 0
	for i, op := range ops {
		if op.Op == "step" {
			if seen++; seen == mid {
				cut = i + 1
				break
			}
		}
	}

	// Daemon 1: first half, then snapshot via the HTTP API.
	d1 := &daemon{scn: testScenario(t)}
	if d1.eng, err = d1.scn.newEngine(""); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(d1.handler())
	defer ts1.Close()
	part1 := driveHTTP(t, ts1, ops[:cut])
	resp, err := http.Get(ts1.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
		t.Fatal(err)
	}

	// Daemon 2: restored from the snapshot, fed the remaining stream.
	d2 := &daemon{scn: testScenario(t)}
	if d2.eng, err = d2.scn.newEngine(snapPath); err != nil {
		t.Fatal(err)
	}
	if d2.eng.Step() != mid {
		t.Fatalf("restored daemon at step %d, want %d", d2.eng.Step(), mid)
	}
	ts2 := httptest.NewServer(d2.handler())
	defer ts2.Close()
	part2 := driveHTTP(t, ts2, ops[cut:])

	combined := append(append([]byte{}, part1...), part2...)
	if !bytes.Equal(combined, full) {
		t.Fatalf("snapshot/restore decision log diverges from uninterrupted run:\ncombined %d bytes, full %d bytes",
			len(combined), len(full))
	}
}

// TestReplaySnapshotAfterResume pins the CLI crash-recovery path: a replay
// interrupted by -snapshot-after, resumed with -restore, concatenates to
// the uninterrupted decision log byte-for-byte.
func TestReplaySnapshotAfterResume(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "requests.jsonl")
	fullPath := filepath.Join(dir, "full.jsonl")
	part1Path := filepath.Join(dir, "part1.jsonl")
	part2Path := filepath.Join(dir, "part2.jsonl")
	snapPath := filepath.Join(dir, "snap.bin")

	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRequestLog(f, testScenario(t)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := replayLog(testScenario(t), logPath, fullPath, "", "", 0); err != nil {
		t.Fatal(err)
	}
	mid := testScenario(t).in.Actual[0].Len() / 2
	if err := replayLog(testScenario(t), logPath, part1Path, snapPath, "", mid); err != nil {
		t.Fatal(err)
	}
	if err := replayLog(testScenario(t), logPath, part2Path, "", snapPath, 0); err != nil {
		t.Fatal(err)
	}
	full, _ := os.ReadFile(fullPath)
	p1, _ := os.ReadFile(part1Path)
	p2, _ := os.ReadFile(part2Path)
	if !bytes.Equal(append(append([]byte{}, p1...), p2...), full) {
		t.Fatalf("resumed replay diverges: %d + %d bytes vs %d uninterrupted", len(p1), len(p2), len(full))
	}
}

// TestRequestLogLineTooLong: a request-log line past the reader's 16 MiB
// line limit is an error naming the log and the line, not a bare scanner
// error.
func TestRequestLogLineTooLong(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "requests.jsonl")
	long := append([]byte(`{"op":"step"}`+"\n"+`{"op":"step","pad":"`), bytes.Repeat([]byte("x"), 1<<24)...)
	if err := os.WriteFile(logPath, append(long, `"}`+"\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := readRequestLog(logPath)
	if want := logPath + " line 2: "; err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "too long") {
		t.Fatalf("reading a log with a 16 MiB line: %v, want an error containing %q and \"too long\"", err, want)
	}
}

// TestReplaySnapshotAfterNeedsSnapshotPath: -snapshot-after without
// -snapshot is refused before any decision is replayed or written.
func TestReplaySnapshotAfterNeedsSnapshotPath(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "requests.jsonl")
	decPath := filepath.Join(dir, "decisions.jsonl")
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRequestLog(f, testScenario(t)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	err = replayLog(testScenario(t), logPath, decPath, "", "", 2)
	if err == nil || !strings.Contains(err.Error(), "-snapshot") {
		t.Fatalf("replay error = %v, want -snapshot-after refused without -snapshot", err)
	}
	if _, err := os.Stat(decPath); !os.IsNotExist(err) {
		t.Fatalf("refused replay still wrote a decision log (stat err %v)", err)
	}
}

// TestReplayRestoreShorterLog: restoring a snapshot taken after 5 steps and
// replaying a request log of only 3 is an error naming both step counts,
// refused before a decision log is created.
func TestReplayRestoreShorterLog(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "requests.jsonl")
	shortPath := filepath.Join(dir, "short.jsonl")
	snapPath := filepath.Join(dir, "snap.bin")
	decPath := filepath.Join(dir, "dec.jsonl")
	var log bytes.Buffer
	if err := writeRequestLog(&log, testScenario(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := replayLog(testScenario(t), logPath, filepath.Join(dir, "part1.jsonl"), snapPath, "", 5); err != nil {
		t.Fatal(err)
	}
	// Keep the log up to its third step.
	var short []byte
	for steps := 0; steps < 3; {
		line, err := log.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		short = append(short, line...)
		if bytes.Contains(line, []byte(`"op":"step"`)) {
			steps++
		}
	}
	if err := os.WriteFile(shortPath, short, 0o644); err != nil {
		t.Fatal(err)
	}
	err := replayLog(testScenario(t), shortPath, decPath, "", snapPath, 0)
	if err == nil || !strings.Contains(err.Error(), "3 steps") || !strings.Contains(err.Error(), "5") {
		t.Fatalf("restore against a 3-step log: %v, want an error naming 3 steps and the snapshot's 5", err)
	}
	if _, err := os.Stat(decPath); !os.IsNotExist(err) {
		t.Fatalf("refused replay still wrote a decision log (stat err %v)", err)
	}
}

// TestReplaySnapshotAfterPastLogEnd: a -snapshot-after step the request
// log never reaches is an error naming both step counts, not a silent
// success with no snapshot.
func TestReplaySnapshotAfterPastLogEnd(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "requests.jsonl")
	snapPath := filepath.Join(dir, "snap.bin")
	scn := testScenario(t)
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRequestLog(f, scn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	steps := scn.in.Actual[0].Len()
	after := steps + 1000
	err = replayLog(testScenario(t), logPath, filepath.Join(dir, "dec.jsonl"), snapPath, "", after)
	if err == nil {
		t.Fatal("replay past the log end reported success")
	}
	for _, n := range []int{steps, after} {
		if !strings.Contains(err.Error(), strconv.Itoa(n)) {
			t.Errorf("error %q does not name step count %d", err, n)
		}
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Fatalf("snapshot written although the log ended first (stat err %v)", err)
	}
}

// TestStateEndpoint sanity-checks the status surface.
func TestStateEndpoint(t *testing.T) {
	d := &daemon{scn: testScenario(t)}
	var err error
	if d.eng, err = d.scn.newEngine(""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var state map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	if state["policy"] != "MIP" || state["step"].(float64) != 0 || state["done"] != false {
		t.Fatalf("unexpected state: %v", state)
	}
	// Telemetry surface answers too.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("/metrics: HTTP %d, %d bytes", mresp.StatusCode, len(body))
	}
}

// TestOversizedWorkloadRefusedBeforePower requires a scenario too long for
// both generators' bounds to be refused by the workload's, which is checked
// before any power is generated.
func TestOversizedWorkloadRefusedBeforePower(t *testing.T) {
	_, err := buildScenario(42, 50000, 6, vb.PolicyMIP, "")
	if err == nil || !strings.HasPrefix(err.Error(), "workload: ") {
		t.Fatalf("err = %v, want the workload bound's error", err)
	}
}

// TestCohortScenarioCarriesClasses pins the class plumbing into the daemon:
// a -workload cohort spec produces arrivals whose demands carry the
// per-SLO-class core breakdown, and the breakdown survives the request-log
// JSON round trip a genlog/replay cycle performs.
func TestCohortScenarioCarriesClasses(t *testing.T) {
	scn, err := buildScenario(42, 3, 6, vb.PolicyGreedy, "../../examples/cohorts/bursty.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(scn.arrivals) == 0 {
		t.Fatal("cohort scenario generated no arrivals")
	}
	classes := map[vb.WorkloadClass]bool{}
	for _, arr := range scn.arrivals {
		if len(arr.Demand.ClassCores) == 0 {
			t.Fatalf("arrival %d has no ClassCores", arr.Demand.ID)
		}
		for c := range arr.Demand.ClassCores {
			classes[c] = true
		}
	}
	if len(classes) < 4 {
		t.Fatalf("expected >=4 SLO classes across arrivals, got %d: %v", len(classes), classes)
	}

	// JSON round trip: what genlog writes, replay and /v1/arrive decode.
	arr := scn.arrivals[0]
	body, err := json.Marshal(arr)
	if err != nil {
		t.Fatal(err)
	}
	var back vb.AppArrival
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Demand.ClassCores) != len(arr.Demand.ClassCores) {
		t.Fatalf("ClassCores lost in JSON round trip: %v -> %v",
			arr.Demand.ClassCores, back.Demand.ClassCores)
	}
	for c, v := range arr.Demand.ClassCores {
		if back.Demand.ClassCores[c] != v {
			t.Fatalf("class %v: %v != %v", c, back.Demand.ClassCores[c], v)
		}
	}
}
