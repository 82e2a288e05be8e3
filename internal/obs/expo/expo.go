// Package expo exposes a live obs.Registry over HTTP: Prometheus text
// format at /metrics, the full JSON registry snapshot at /snapshot, the
// tracer's buffered events as JSONL at /events, and net/http/pprof under
// /debug/pprof/. It is the telemetry surface the CLIs serve behind their
// -listen flags and the one a future daemon inherits.
package expo

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/vbcloud/vb/internal/obs"
)

// Server serves one registry's telemetry. Create with NewServer, start
// with Start, stop with Shutdown.
type Server struct {
	reg *obs.Registry
	mux *http.ServeMux
	srv *http.Server
	ln  net.Listener
}

// NewServer builds a server around reg (which may be nil: endpoints then
// serve empty snapshots, so wiring stays unconditional in callers).
func NewServer(reg *obs.Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's routing handler (useful for tests and for
// embedding under another mux).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (host:port; port 0 picks a free one) and serves in
// a background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("expo: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Shutdown
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start or on a nil server).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the server, letting in-flight requests finish
// until ctx expires. It is a no-op before Start and on a nil server, so
// CLIs can defer it unconditionally.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, s.reg.Snapshot()) //nolint:errcheck // client-side write errors
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.reg.Snapshot()) //nolint:errcheck
}

func (s *Server) handleEvents(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, e := range s.reg.Tracer().Events() {
		if enc.Encode(e) != nil {
			return
		}
	}
}

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and counter vecs as
// `counter`, gauges as `gauge`, histograms with cumulative `le` buckets
// ending at +Inf plus `_sum` and `_count` series. Run labels
// become a `vb_run_info` gauge with one label per entry. Output order is
// deterministic: flat metrics sort by name, vec series are pre-sorted by
// the snapshot.
func WritePrometheus(w io.Writer, s obs.RegistrySnapshot) error {
	bw := &errWriter{w: w}

	if len(s.Labels) > 0 {
		bw.printf("# HELP vb_run_info run-scoped labels attached to the registry\n")
		bw.printf("# TYPE vb_run_info gauge\n")
		keys := sortedKeys(s.Labels)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=\"%s\"", sanitizeLabel(k), escapeLabelValue(s.Labels[k])))
		}
		bw.printf("vb_run_info{%s} 1\n", strings.Join(parts, ","))
	}

	for _, name := range sortedKeys(s.Counters) {
		n := sanitizeName(name)
		bw.printf("# HELP %s counter %s\n# TYPE %s counter\n", n, name, n)
		bw.printf("%s %s\n", n, formatValue(s.Counters[name]))
	}
	for _, name := range sortedKeys(s.Gauges) {
		n := sanitizeName(name)
		bw.printf("# HELP %s gauge %s\n# TYPE %s gauge\n", n, name, n)
		bw.printf("%s %s\n", n, formatValue(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		writeHistogram(bw, name, s.Histograms[name])
	}

	for _, name := range sortedKeys(s.CounterVecs) {
		v := s.CounterVecs[name]
		n := sanitizeName(name)
		bw.printf("# HELP %s counter %s\n# TYPE %s counter\n", n, name, n)
		for _, lv := range v.Values {
			bw.printf("%s%s %s\n", n, labelPairs(v.LabelNames, lv.Labels), formatValue(lv.Value))
		}
	}

	// Event-type totals round out the scrape: counts as a counter vec over
	// the event type, GB/core totals likewise.
	if len(s.Events) > 0 {
		types := make([]string, 0, len(s.Events))
		for ty := range s.Events {
			types = append(types, string(ty))
		}
		sort.Strings(types)
		bw.printf("# HELP vb_events_total events emitted per type\n# TYPE vb_events_total counter\n")
		for _, ty := range types {
			bw.printf("vb_events_total{type=\"%s\"} %d\n", escapeLabelValue(ty), s.Events[obs.EventType(ty)].Count)
		}
		bw.printf("# HELP vb_events_gb_total exact GB total per event type\n# TYPE vb_events_gb_total counter\n")
		for _, ty := range types {
			bw.printf("vb_events_gb_total{type=\"%s\"} %s\n", escapeLabelValue(ty), formatValue(s.Events[obs.EventType(ty)].GB))
		}
		bw.printf("# HELP vb_events_cores_total exact core total per event type\n# TYPE vb_events_cores_total counter\n")
		for _, ty := range types {
			bw.printf("vb_events_cores_total{type=\"%s\"} %s\n", escapeLabelValue(ty), formatValue(s.Events[obs.EventType(ty)].Cores))
		}
	}
	return bw.err
}

// writeHistogram emits one flat histogram with cumulative buckets.
func writeHistogram(bw *errWriter, name string, h obs.HistogramSnapshot) {
	n := sanitizeName(name)
	bw.printf("# HELP %s histogram %s\n# TYPE %s histogram\n", n, name, n)
	var cum int64
	for i, bound := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		bw.printf("%s_bucket{le=\"%s\"} %d\n", n, formatValue(bound), cum)
	}
	bw.printf("%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
	bw.printf("%s_sum %s\n", n, formatValue(h.Sum))
	bw.printf("%s_count %d\n", n, h.Count)
}

// labelPairs renders `{a="x",b="y"}` from parallel name/value slices. It
// returns "" with no pairs.
func labelPairs(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		val := ""
		if i < len(values) {
			val = values[i]
		}
		fmt.Fprintf(&sb, "%s=\"%s\"", sanitizeLabel(name), escapeLabelValue(val))
	}
	sb.WriteByte('}')
	return sb.String()
}

// sanitizeName maps an internal metric name ("sim.planned_gb") onto the
// Prometheus name charset [a-zA-Z_:][a-zA-Z0-9_:]* with a vb_ prefix.
func sanitizeName(name string) string {
	var sb strings.Builder
	sb.WriteString("vb_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// sanitizeLabel maps a label name onto [a-zA-Z_][a-zA-Z0-9_]*.
func sanitizeLabel(name string) string {
	if name == "" {
		return "_"
	}
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			sb.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				sb.WriteByte('_')
			}
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// labelValueEscaper applies the exposition format's three label-value
// escapes: backslash, double quote, and newline.
var labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabelValue escapes a label value for inclusion between the
// double quotes the callers write literally.
func escapeLabelValue(v string) string {
	return labelValueEscaper.Replace(v)
}

// formatValue renders a float the way Prometheus expects (shortest
// round-trip form; integers without exponent where possible).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// errWriter latches the first write error so exposition code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
