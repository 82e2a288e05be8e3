// Record/replay: the request log is the daemon's external input stream
// (application arrivals and step ticks) serialized as JSONL, one operation
// per line. Replaying a log through a fresh engine — or through a snapshot
// + restore — reproduces the decision log byte-for-byte.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	vb "github.com/vbcloud/vb"
)

// requestOp is one recorded daemon input.
type requestOp struct {
	// Op is "arrive" (an application enters) or "step" (advance one plan
	// step with everything that has arrived).
	Op string `json:"op"`
	// Arrival is set for "arrive" operations.
	Arrival *vb.AppArrival `json:"arrival,omitempty"`
}

// writeRequestLog records the scenario's workload as the stream of
// operations a live client would have sent: before each step, the arrivals
// whose start time has been reached.
func writeRequestLog(w io.Writer, scn *scenario) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	base := scn.in.Actual[0]
	next := 0
	for t := 0; t < base.Len(); t++ {
		now := base.TimeAt(t)
		for next < len(scn.arrivals) && !scn.arrivals[next].Demand.Start.After(now) {
			arr := scn.arrivals[next]
			if err := enc.Encode(requestOp{Op: "arrive", Arrival: &arr}); err != nil {
				return err
			}
			next++
		}
		if err := enc.Encode(requestOp{Op: "step"}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readRequestLog parses a recorded request log.
func readRequestLog(path string) ([]requestOp, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ops []requestOp
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var op requestOp
		if err := json.Unmarshal(sc.Bytes(), &op); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		switch op.Op {
		case "arrive":
			if op.Arrival == nil {
				return nil, fmt.Errorf("%s line %d: arrive without arrival", path, line)
			}
		case "step":
		default:
			return nil, fmt.Errorf("%s line %d: unknown op %q", path, line, op.Op)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s line %d: %w", path, line+1, err)
	}
	return ops, nil
}

// skipReplayed drops the prefix of ops a restored engine has already
// consumed: the first `steps` step operations and every arrive operation
// before them (their apps are part of the snapshot). A log with fewer
// steps than that is not the log the snapshot was taken from: an error
// naming both step counts.
func skipReplayed(ops []requestOp, steps int) ([]requestOp, error) {
	if steps <= 0 {
		return ops, nil
	}
	seen := 0
	for i, op := range ops {
		if op.Op != "step" {
			continue
		}
		seen++
		if seen == steps {
			return ops[i+1:], nil
		}
	}
	return nil, fmt.Errorf("request log has %d steps, fewer than the %d the restored snapshot has taken", seen, steps)
}

// replayLog drives the engine through a recorded request log, writing the
// decision log (JSONL of vb.VMStepReport). With snapAfter > 0 it stops
// after that many steps and writes a snapshot to snapPath, which must be
// set, and fails if the log ends first; with restorePath set it resumes
// from a snapshot and skips the already-consumed log prefix.
func replayLog(scn *scenario, logPath, decPath, snapPath, restorePath string, snapAfter int) error {
	if snapAfter > 0 && snapPath == "" {
		return fmt.Errorf("-snapshot-after needs -snapshot <path>")
	}
	ops, err := readRequestLog(logPath)
	if err != nil {
		return err
	}
	eng, err := scn.newEngine(restorePath)
	if err != nil {
		return err
	}
	if ops, err = skipReplayed(ops, eng.Step()); err != nil {
		return err
	}

	var dec io.Writer = os.Stdout
	if decPath != "" {
		f, err := os.Create(decPath)
		if err != nil {
			return err
		}
		defer f.Close()
		dec = f
	}
	bw := bufio.NewWriter(dec)
	defer bw.Flush()

	var pending []vb.AppArrival
	stepsDone := 0
	for _, op := range ops {
		switch op.Op {
		case "arrive":
			pending = append(pending, *op.Arrival)
		case "step":
			if eng.Done() {
				return fmt.Errorf("request log has more steps than the %d-step timeline", eng.Steps())
			}
			rep, err := eng.Advance(pending)
			if err != nil {
				return err
			}
			pending = pending[:0]
			line, err := json.Marshal(rep)
			if err != nil {
				return err
			}
			if _, err := bw.Write(append(line, '\n')); err != nil {
				return err
			}
			stepsDone++
			if snapAfter > 0 && stepsDone == snapAfter {
				if err := bw.Flush(); err != nil {
					return err
				}
				return writeSnapshot(eng, snapPath)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if snapAfter > 0 {
		return fmt.Errorf("request log ended after %d steps, before -snapshot-after %d; no snapshot written", stepsDone, snapAfter)
	}
	return nil
}

// writeSnapshot atomically writes the engine's state to path.
func writeSnapshot(eng *vb.VMEngine, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := eng.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
