package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// EventType names a structured simulation event.
type EventType string

// Simulation event types. GB and core totals per type are tracked exactly
// by the Tracer, so event streams reconcile with run aggregates.
const (
	// PlanComputed marks a scheduler placement or re-plan for one app.
	PlanComputed EventType = "plan_computed"
	// PlannedRealloc is a scheduler-initiated move of cores between sites.
	PlannedRealloc EventType = "planned_realloc"
	// ForcedMigration is a reactive move after actual power fell below the
	// allocation at a site.
	ForcedMigration EventType = "forced_migration"
	// StablePause marks stable cores pausing in place with nowhere to go
	// (an availability violation).
	StablePause EventType = "stable_pause"
	// Shortfall marks demanded stable cores the plan itself left unplaced.
	Shortfall EventType = "shortfall"
	// HorizonSwitch marks a forecast bundle answering from a different
	// standard horizon than the previous query.
	HorizonSwitch EventType = "horizon_switch"
	// MIPSolveStart and MIPSolveFinish bracket one site-selection MIP
	// solve; the finish event carries wall-clock duration and objective.
	MIPSolveStart  EventType = "mip_solve_start"
	MIPSolveFinish EventType = "mip_solve_finish"
	// VMEvicted, VMMoved and VMPlacementFail are VM-granularity events
	// from the VM-level engine and the single-site cluster simulator.
	VMEvicted       EventType = "vm_evicted"
	VMMoved         EventType = "vm_moved"
	VMPlacementFail EventType = "vm_placement_failed"
	// SiteStep summarizes one single-site cluster step with traffic.
	SiteStep EventType = "site_step"
	// FaultInjected marks a fault-script event's window opening (site
	// blackout, brownout, WAN cut, forecast bust, solver slowdown).
	FaultInjected EventType = "fault_injected"
	// SchedulerFallback marks a placement that degraded down the ladder:
	// Detail names the tier taken ("rounded-lp" or "greedy").
	SchedulerFallback EventType = "scheduler_fallback"
)

// Event is one structured simulation event. Site, Dst, App and VM are -1
// when not applicable.
type Event struct {
	// Seq is the emission sequence number, assigned by the Tracer.
	Seq int64 `json:"seq"`
	// Type is the event type.
	Type EventType `json:"type"`
	// Step is the global plan-step index (-1 when unknown).
	Step int `json:"step"`
	// App is the application ID, Site the source site index, Dst the
	// destination site index, VM the VM ID.
	App  int `json:"app"`
	Site int `json:"site"`
	Dst  int `json:"dst"`
	VM   int `json:"vm,omitempty"`
	// Cores is the core count the event concerns, GB the bytes moved.
	Cores float64 `json:"cores,omitempty"`
	GB    float64 `json:"gb,omitempty"`
	// DurNS is a wall-clock duration in nanoseconds (solve finish).
	DurNS int64 `json:"dur_ns,omitempty"`
	// Objective is the solver's objective value (solve finish).
	Objective float64 `json:"objective,omitempty"`
	// Pivots, Refactors and EtaLen carry solver kernel counters (solve
	// finish): simplex pivots, basis refactorizations, and the final
	// eta-chain length of the sparse LU update file.
	Pivots    int64 `json:"pivots,omitempty"`
	Refactors int64 `json:"refactors,omitempty"`
	EtaLen    int   `json:"eta_len,omitempty"`
	// Detail carries free-form context ("replan", "24h0m0s->168h0m0s").
	Detail string `json:"detail,omitempty"`
}

// TypeStats aggregates one event type's exact totals.
type TypeStats struct {
	Count int64   `json:"count"`
	GB    float64 `json:"gb,omitempty"`
	Cores float64 `json:"cores,omitempty"`
}

// tally adds e to m[k]. Tracer.Emit and Analyze both accumulate through
// it, so their totals agree bit for bit over the same event order.
func tally[K comparable](m map[K]TypeStats, k K, e Event) {
	s := m[k]
	s.Count++
	s.GB += e.GB
	s.Cores += e.Cores
	m[k] = s
}

// DefaultRingSize is the tracer ring-buffer capacity when unspecified.
const DefaultRingSize = 4096

// Tracer collects structured events into a bounded in-memory ring buffer
// and optionally mirrors each event to a JSONL sink. Per-type counts and
// totals are exact regardless of ring wrap. All methods are concurrency-
// safe and nil-safe.
type Tracer struct {
	mu      sync.Mutex
	seq     int64
	size    int
	ring    []Event
	next    int
	wrapped bool
	stats   map[EventType]TypeStats
	enc     *json.Encoder
	sinkErr error
}

// NewTracer returns a tracer whose ring holds up to ringSize events
// (DefaultRingSize when <= 0).
func NewTracer(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Tracer{size: ringSize, stats: map[EventType]TypeStats{}}
}

// SetSink mirrors every subsequently emitted event to w as one JSON object
// per line (JSONL). Pass nil to detach.
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if w == nil {
		t.enc = nil
	} else {
		t.enc = json.NewEncoder(w)
	}
	t.mu.Unlock()
}

// Emit records an event, assigning its sequence number.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	e.Seq = t.seq
	t.seq++
	tally(t.stats, e.Type, e)
	if len(t.ring) < t.size {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.next] = e
		t.next = (t.next + 1) % t.size
		t.wrapped = true
	}
	if t.enc != nil && t.sinkErr == nil {
		t.sinkErr = t.enc.Encode(e)
	}
	t.mu.Unlock()
}

// Events returns the buffered events, oldest first. After the ring wraps
// only the most recent ring-size events remain (Count stays exact).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if t.wrapped {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Stats returns the exact aggregate for one event type.
func (t *Tracer) Stats(ty EventType) TypeStats {
	if t == nil {
		return TypeStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats[ty]
}

// AllStats returns a copy of every event type's aggregate.
func (t *Tracer) AllStats() map[EventType]TypeStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[EventType]TypeStats, len(t.stats))
	for k, v := range t.stats {
		out[k] = v
	}
	return out
}

// Err returns the first sink write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkErr
}

// ParseError reports a malformed line in a JSONL event stream, positioned
// by 1-based line number and the byte offset of the line's start.
type ParseError struct {
	// Line is the 1-based line number of the bad record.
	Line int
	// Offset is the byte offset of the start of the bad line.
	Offset int64
	// Err is the underlying decode error (or a truncation description).
	Err error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("trace line %d (byte %d): %v", e.Line, e.Offset, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

// ReadEvents decodes a JSONL event stream written by a Tracer sink. It is
// resilient to truncated or corrupt trailing records — a crash mid-write
// leaves a partial last line — returning every event decoded before the
// bad record together with a *ParseError locating it. Callers that only
// care about the recoverable prefix can use the events and log the error.
func ReadEvents(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	var out []Event
	var offset int64
	for line := 1; ; line++ {
		raw, err := br.ReadBytes('\n')
		if len(raw) > 0 {
			trimmed := bytes.TrimSpace(raw)
			if len(trimmed) > 0 {
				var e Event
				if derr := json.Unmarshal(trimmed, &e); derr != nil {
					if err != nil && !errors.Is(err, io.EOF) {
						derr = fmt.Errorf("%w (after read error: %v)", derr, err)
					} else if err != nil {
						derr = fmt.Errorf("truncated record: %w", derr)
					}
					return out, &ParseError{Line: line, Offset: offset, Err: derr}
				}
				out = append(out, e)
			}
		}
		offset += int64(len(raw))
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, &ParseError{Line: line, Offset: offset, Err: err}
		}
	}
}
