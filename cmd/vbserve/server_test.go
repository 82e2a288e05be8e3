package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	vb "github.com/vbcloud/vb"
)

// TestPanicRecoveryMiddleware is the regression test for the daemon
// hardening satellite: a handler panic must surface as a 500 response and
// a serve.panics count, not kill the process.
func TestPanicRecoveryMiddleware(t *testing.T) {
	d := &daemon{scn: testScenario(t)}
	boom := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	})
	ts := httptest.NewServer(d.withRecovery(boom))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/anything")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned HTTP %d, want 500", resp.StatusCode)
	}
	if got := d.scn.reg.Counter("serve.panics"); got != 1 {
		t.Fatalf("serve.panics = %v, want 1", got)
	}
	// The server keeps serving after the panic.
	resp2, err := http.Get(ts.URL + "/again")
	if err != nil {
		t.Fatalf("server dead after panic: %v", err)
	}
	resp2.Body.Close()
	if got := d.scn.reg.Counter("serve.panics"); got != 2 {
		t.Fatalf("serve.panics = %v after second panic, want 2", got)
	}
}

// TestHealthAndReadiness: /healthz answers 200 as soon as the process
// serves; /readyz is 503 while the engine is absent (snapshot restore in
// progress) and 200 once it is in place. Engine endpoints 503 rather than
// panic on the nil engine.
func TestHealthAndReadiness(t *testing.T) {
	d := &daemon{scn: testScenario(t)}
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d before engine ready, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with no engine, want 503", got)
	}
	if got := get("/v1/state"); got != http.StatusServiceUnavailable {
		t.Fatalf("/v1/state = %d with no engine, want 503", got)
	}
	resp, err := http.Post(ts.URL+"/v1/step", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v1/step = %d with no engine, want 503", resp.StatusCode)
	}
	if got := postArrival(t, ts, 9001); got != http.StatusServiceUnavailable {
		t.Fatalf("/v1/arrive = %d with no engine, want 503", got)
	}

	eng, err := d.scn.newEngine("")
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	d.eng = eng
	d.mu.Unlock()
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz = %d with engine ready, want 200", got)
	}
	if got := get("/v1/state"); got != http.StatusOK {
		t.Fatalf("/v1/state = %d with engine ready, want 200", got)
	}
}

// postArrival queues a small valid application with the given ID and
// returns the HTTP status.
func postArrival(t *testing.T, ts *httptest.Server, id int) int {
	t.Helper()
	arr := vb.AppArrival{Demand: vb.AppDemand{
		ID: id, Cores: 4, StableCores: 4, MemGBPerCore: 4, Start: scenarioStart,
	}}
	body, _ := json.Marshal(arr)
	resp, err := http.Post(ts.URL+"/v1/arrive", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// postStep advances the daemon one step and returns the HTTP status.
func postStep(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/step", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestArriveBackpressure: a bounded arrival queue answers 429 once full and
// counts serve.backpressure; stepping drains the queue and reopens it.
func TestArriveBackpressure(t *testing.T) {
	d := &daemon{scn: testScenario(t), maxPending: 2}
	var err error
	if d.eng, err = d.scn.newEngine(""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.handler())
	defer ts.Close()
	arrive := func(id int) int { return postArrival(t, ts, id) }

	if got := arrive(9001); got != http.StatusAccepted {
		t.Fatalf("arrival 1 = HTTP %d, want 202", got)
	}
	if got := arrive(9002); got != http.StatusAccepted {
		t.Fatalf("arrival 2 = HTTP %d, want 202", got)
	}
	if got := arrive(9003); got != http.StatusTooManyRequests {
		t.Fatalf("arrival beyond bound = HTTP %d, want 429", got)
	}
	if got := d.scn.reg.Counter("serve.backpressure"); got != 1 {
		t.Fatalf("serve.backpressure = %v, want 1", got)
	}
	// A step consumes the queue; arrivals flow again.
	if got := postStep(t, ts); got != http.StatusOK {
		t.Fatalf("step = HTTP %d, want 200", got)
	}
	if got := arrive(9004); got != http.StatusAccepted {
		t.Fatalf("arrival after drain = HTTP %d, want 202", got)
	}
}

// TestArriveRefusesRepeatedApp: an app ID already queued, already fed to
// the engine, or restored from a snapshot is answered 409 and never
// queued, so the steps after it keep succeeding.
func TestArriveRefusesRepeatedApp(t *testing.T) {
	d := &daemon{scn: testScenario(t)}
	var err error
	if d.eng, err = d.scn.newEngine(""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	for i, want := range []int{http.StatusAccepted, http.StatusConflict} {
		if got := postArrival(t, ts, 9001); got != want {
			t.Fatalf("arrival %d of app 9001 = HTTP %d, want %d", i+1, got, want)
		}
	}
	for step := 0; step < 2; step++ {
		if got := postStep(t, ts); got != http.StatusOK {
			t.Fatalf("step %d = HTTP %d, want 200", step, got)
		}
		if got := postArrival(t, ts, 9001); got != http.StatusConflict {
			t.Fatalf("app 9001 arriving again after step %d = HTTP %d, want 409", step, got)
		}
	}

	snapPath := filepath.Join(t.TempDir(), "snap.bin")
	if err := writeSnapshot(d.eng, snapPath); err != nil {
		t.Fatal(err)
	}
	d2 := &daemon{scn: testScenario(t)}
	if d2.eng, err = d2.scn.newEngine(snapPath); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(d2.handler())
	defer ts2.Close()
	if got := postArrival(t, ts2, 9001); got != http.StatusConflict {
		t.Fatalf("restored app 9001 arriving again = HTTP %d, want 409", got)
	}
	if got := postArrival(t, ts2, 9002); got != http.StatusAccepted {
		t.Fatalf("new app 9002 on the restored daemon = HTTP %d, want 202", got)
	}
	if got := postStep(t, ts2); got != http.StatusOK {
		t.Fatalf("step on the restored daemon = HTTP %d, want 200", got)
	}
}

// TestServeBecomesReady drives the real serve() path: the daemon answers
// health checks immediately, flips ready once the background engine build
// finishes, and shuts down gracefully on SIGTERM-equivalent (server close).
func TestServeBecomesReady(t *testing.T) {
	scn := testScenario(t)
	d := &daemon{scn: scn, maxPending: 16}
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	// Simulate serve()'s background init.
	done := make(chan error, 1)
	go func() {
		eng, err := scn.newEngine("")
		if err != nil {
			done <- err
			return
		}
		d.mu.Lock()
		d.eng = eng
		d.mu.Unlock()
		done <- nil
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestApplyFaults checks the -faults wiring: a compact spec compiles into
// an injector with the scenario's dimensions, a bad spec errors, and the
// empty spec leaves the seed configuration untouched.
func TestApplyFaults(t *testing.T) {
	scn := testScenario(t)
	if err := scn.applyFaults(""); err != nil || scn.in.Faults != nil {
		t.Fatalf("empty spec: faults=%v err=%v, want nil/nil", scn.in.Faults, err)
	}
	if err := scn.applyFaults("blackout:0@1-3"); err != nil {
		t.Fatal(err)
	}
	if scn.in.Faults == nil {
		t.Fatal("spec did not install an injector")
	}
	sites, steps := scn.in.Faults.Dims()
	if sites != len(scn.in.Actual) || steps != scn.in.Actual[0].Len() {
		t.Fatalf("injector dims %dx%d, want %dx%d", sites, steps,
			len(scn.in.Actual), scn.in.Actual[0].Len())
	}
	if err := testScenario(t).applyFaults("blackout:99@1-3"); err == nil {
		t.Fatal("out-of-range site accepted")
	}
	if err := testScenario(t).applyFaults("gremlins:0@1-3"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
