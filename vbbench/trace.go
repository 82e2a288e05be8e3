package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public functions, recorded by the
// benchmark around the call. Spans of one workload pass share a run id.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	// Attr distinguishes spans of one name, such as the policy of a
	// sim.advance span.
	Attr  string `json:"attr,omitempty"`
	Start int64  `json:"start_ns"` // since the tracer's origin
	End   int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps one workload's spans in memory until the run ends; each
// workload gets its own, so its sums never include another workload's
// spans of the same name. It is used from one goroutine. A nil tracer
// records nothing, so untraced code paths share the traced ones.
type tracer struct {
	origin time.Time
	run    string
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name, attr string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name, Attr: attr,
		Start: int64(time.Since(t.origin))})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.origin))
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func() error) error {
	id := t.start(name, "", parent)
	err := f()
	t.end(id)
	return err
}

// selfSeconds sums, per span name, each span's duration minus the time its
// children cover. Children never overlap: the benchmark calls one layer at
// a time.
func (t *tracer) selfSeconds() map[string]float64 {
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.seconds()
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += s.seconds() - child[s.ID]
	}
	return self
}

// durations sums the durations of the spans named name, in total and per
// attr, and returns each one, so len(each) is the sample count.
func (t *tracer) durations(name string) (total float64, byAttr map[string]float64, each []float64) {
	byAttr = map[string]float64{}
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		d := s.seconds()
		total += d
		byAttr[s.Attr] += d
		each = append(each, d)
	}
	return total, byAttr, each
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
