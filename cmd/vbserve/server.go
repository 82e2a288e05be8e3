// The HTTP daemon: a mutex-guarded engine behind a small JSON API, plus
// the obs-v2 telemetry surface (Prometheus metrics, registry snapshots,
// live event stream, pprof) mounted from the run's registry.
//
//	POST /v1/arrive    {"demand":{...},"vms":[...]}  queue an application
//	                   (400 for a malformed demand or VM, 409 for an app
//	                   or VM ID already queued or in the engine)
//	POST /v1/step      advance one plan step, return its decision record
//	GET  /v1/decisions full decision log (JSONL)
//	GET  /v1/state     engine status
//	GET  /v1/snapshot  engine state (binary, restorable with -restore)
//	POST /v1/snapshot  write engine state to the -snapshot path
//	GET  /healthz      liveness (always 200 while the process serves)
//	GET  /readyz       readiness (503 while the engine is still restoring)
//	GET  /metrics, /snapshot, /events, /debug/pprof/...   obs-v2 telemetry
//
// Daemon hardening: every handler runs under panic recovery (a panic
// returns 500 and increments serve.panics instead of killing the process),
// the arrival queue is bounded (429 + serve.backpressure when full), header
// reads are deadlined, and SIGINT/SIGTERM trigger a graceful shutdown with
// a configurable drain deadline.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	vb "github.com/vbcloud/vb"
	"github.com/vbcloud/vb/internal/obs/expo"
)

// daemon is the serving state: one engine, a queue of arrivals for the
// next step, and the accumulated decision log.
type daemon struct {
	scn      *scenario
	snapPath string
	// maxPending bounds the arrival queue; 0 = unbounded. Beyond it,
	// POST /v1/arrive returns 429 and counts serve.backpressure.
	maxPending int

	mu        sync.Mutex
	eng       *vb.VMEngine // nil while a snapshot restore is in progress
	pending   vb.ArrivalQueue
	decisions [][]byte
	decFile   *os.File
}

func serve(scn *scenario, listen, decPath, snapPath, restorePath string, maxPending int, shutdownTimeout time.Duration) error {
	d := &daemon{scn: scn, snapPath: snapPath, maxPending: maxPending}
	if decPath != "" {
		f, err := os.OpenFile(decPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		d.decFile = f
	}

	srv := &http.Server{
		Addr:              listen,
		Handler:           d.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Build (or restore) the engine in the background so the daemon can
	// answer /healthz immediately; /readyz stays 503 until the engine is
	// in place. A restore failure is fatal — a daemon that silently starts
	// fresh would replay different decisions.
	initErr := make(chan error, 1)
	go func() {
		eng, err := scn.newEngine(restorePath)
		if err != nil {
			initErr <- err
			srv.Close()
			return
		}
		d.mu.Lock()
		d.eng = eng
		d.mu.Unlock()
		log.Printf("engine ready (policy %v, %d sites, %d steps, starting at step %d)",
			scn.cfg.Policy, len(scn.in.Actual), eng.Steps(), eng.Step())
		initErr <- nil
	}()

	log.Printf("listening on %s", listen)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	select {
	case err := <-serveErr:
		if ierr := <-initErr; ierr != nil {
			return fmt.Errorf("engine init: %w", ierr)
		}
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	case sig := <-stop:
		log.Printf("received %v, draining (deadline %v)", sig, shutdownTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/arrive", d.handleArrive)
	mux.HandleFunc("/v1/step", d.handleStep)
	mux.HandleFunc("/v1/decisions", d.handleDecisions)
	mux.HandleFunc("/v1/state", d.handleState)
	mux.HandleFunc("/v1/snapshot", d.handleSnapshot)
	mux.HandleFunc("/healthz", d.handleHealthz)
	mux.HandleFunc("/readyz", d.handleReadyz)
	// The obs-v2 telemetry surface, served from the run's registry.
	tele := expo.NewServer(d.scn.reg).Handler()
	for _, p := range []string{"/metrics", "/snapshot", "/events", "/debug/pprof/"} {
		mux.Handle(p, tele)
	}
	return d.withRecovery(mux)
}

// withRecovery converts a handler panic into a 500 response plus a
// serve.panics count: one bad request must not take down the scheduling
// loop for every other client.
func (d *daemon) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				d.scn.reg.Inc("serve.panics")
				log.Printf("panic serving %s %s: %v", r.Method, r.URL.Path, p)
				httpError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// lockEngine acquires the daemon mutex and returns the engine, or answers
// 503 and returns nil while the engine is still being built/restored.
// The caller must unlock d.mu iff the return is non-nil.
func (d *daemon) lockEngine(w http.ResponseWriter) *vb.VMEngine {
	d.mu.Lock()
	if d.eng == nil {
		d.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "engine restoring; not ready")
		return nil
	}
	return d.eng
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (d *daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (d *daemon) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	ready := d.eng != nil
	d.mu.Unlock()
	if !ready {
		httpError(w, http.StatusServiceUnavailable, "engine restoring")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (d *daemon) handleArrive(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var arr vb.AppArrival
	if err := json.NewDecoder(r.Body).Decode(&arr); err != nil {
		httpError(w, http.StatusBadRequest, "decoding arrival: %v", err)
		return
	}
	if err := arr.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "invalid arrival: %v", err)
		return
	}
	eng := d.lockEngine(w)
	if eng == nil {
		return
	}
	defer d.mu.Unlock()
	if d.maxPending > 0 && len(d.pending.Arrivals) >= d.maxPending {
		d.scn.reg.Inc("serve.backpressure")
		httpError(w, http.StatusTooManyRequests,
			"arrival queue full (%d pending); step the engine or retry later", d.maxPending)
		return
	}
	// The arrival is valid, so the engine can only refuse a repeated app or
	// firm VM ID: one already queued for the next step or already fed to
	// the engine. Queueing it would make every later step fail.
	if err := eng.Enqueue(&d.pending, arr); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{"queued": len(d.pending.Arrivals)})
}

func (d *daemon) handleStep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	eng := d.lockEngine(w)
	if eng == nil {
		return
	}
	defer d.mu.Unlock()
	if eng.Done() {
		httpError(w, http.StatusConflict, "timeline exhausted (%d steps)", eng.Steps())
		return
	}
	rep, err := eng.Advance(d.pending.Arrivals)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "advance: %v", err)
		return
	}
	d.pending = vb.ArrivalQueue{}
	line, err := json.Marshal(rep)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding report: %v", err)
		return
	}
	d.decisions = append(d.decisions, line)
	if d.decFile != nil {
		if _, err := d.decFile.Write(append(line, '\n')); err != nil {
			httpError(w, http.StatusInternalServerError, "writing decision log: %v", err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(line, '\n'))
}

func (d *daemon) handleDecisions(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w.Header().Set("Content-Type", "application/jsonl")
	bw := bufio.NewWriter(w)
	for _, line := range d.decisions {
		bw.Write(line)
		bw.WriteByte('\n')
	}
	bw.Flush()
}

func (d *daemon) handleState(w http.ResponseWriter, _ *http.Request) {
	eng := d.lockEngine(w)
	if eng == nil {
		return
	}
	defer d.mu.Unlock()
	res := eng.Result()
	state := map[string]interface{}{
		"policy":      d.scn.cfg.Policy.String(),
		"step":        eng.Step(),
		"steps":       eng.Steps(),
		"done":        eng.Done(),
		"running_vms": eng.Running(),
		"tracked_vms": eng.TrackedVMs(),
		"queued":      len(d.pending.Arrivals),
		"moves":       res.Moves,
		"transfer_gb": res.Transfer.Total(),
	}
	if !eng.Done() {
		state["now"] = eng.Now()
	}
	writeJSON(w, http.StatusOK, state)
}

func (d *daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	eng := d.lockEngine(w)
	if eng == nil {
		return
	}
	defer d.mu.Unlock()
	switch r.Method {
	case http.MethodGet:
		// Stream the engine state; restorable via -restore or
		// vb.RestoreVMEngine.
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := eng.Snapshot(w); err != nil {
			httpError(w, http.StatusInternalServerError, "snapshot: %v", err)
		}
	case http.MethodPost:
		if d.snapPath == "" {
			httpError(w, http.StatusPreconditionFailed, "no -snapshot path configured")
			return
		}
		if err := writeSnapshot(eng, d.snapPath); err != nil {
			httpError(w, http.StatusInternalServerError, "snapshot: %v", err)
			return
		}
		info, _ := os.Stat(d.snapPath)
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"path": d.snapPath, "bytes": info.Size(), "step": eng.Step(),
		})
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST")
	}
}
