package expo

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/obs"
)

// Exposition-format line grammar (text format 0.0.4): a metric name, an
// optional label set with escaped quoted values, a float value (including
// +Inf/NaN), and an optional timestamp.
var (
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	typeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$`)
	sampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
		`(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\])*"` +
		`(,[a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\])*")*\})?` +
		` [-+]?(Inf|NaN|[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)( [0-9]+)?$`)
)

// checkPrometheusText validates every line of a text-format payload and
// returns the number of sample (non-comment) lines.
func checkPrometheusText(t *testing.T, payload string) int {
	t.Helper()
	samples := 0
	sc := bufio.NewScanner(strings.NewReader(payload))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		switch {
		case text == "":
		case strings.HasPrefix(text, "# HELP "):
			if !helpRe.MatchString(text) {
				t.Errorf("line %d: malformed HELP: %q", line, text)
			}
		case strings.HasPrefix(text, "# TYPE "):
			if !typeRe.MatchString(text) {
				t.Errorf("line %d: malformed TYPE: %q", line, text)
			}
		case strings.HasPrefix(text, "#"):
			t.Errorf("line %d: unknown comment form: %q", line, text)
		default:
			if !sampleRe.MatchString(text) {
				t.Errorf("line %d: malformed sample: %q", line, text)
			}
			samples++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

func populated() *obs.Registry {
	reg := obs.NewRegistry()
	reg.SetLabel("policy", "MIP")
	reg.SetLabel("tricky", "a\"b\\c\nd") // exercises all three escapes
	reg.Add("mip.nodes", 42)
	reg.SetGauge("sim.sites", 3)
	reg.Observe("mip.solve", 0.002)
	reg.Observe("mip.solve", 0.2)
	cv := reg.NewCounterVec("sim.planned_gb", "policy", "src", "dst")
	cv.Add(12.5, "MIP", "0", "1")
	cv.Add(3.25, "MIP", "1", "2")
	hv := reg.NewHistogramVec("mip.solve.by_app", nil, "policy", "app")
	hv.Observe(0.004, "MIP", "1")
	hv.Observe(0.03, "MIP", "2")
	reg.Emit(obs.Event{Type: obs.ForcedMigration, Step: 1, App: 1, Site: 0, Dst: 1, Cores: 4, GB: 16})
	return reg
}

func TestWritePrometheusIsValidTextFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, populated().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := checkPrometheusText(t, out); n == 0 {
		t.Fatal("no sample lines produced")
	}
	for _, want := range []string{
		"vb_mip_nodes 42",
		"vb_sim_sites 3",
		`vb_sim_planned_gb{policy="MIP",src="0",dst="1"} 12.5`,
		`vb_mip_solve_by_app_bucket{policy="MIP",app="1",le="+Inf"} 1`,
		`vb_events_total{type="forced_migration"} 1`,
		`vb_run_info{policy="MIP",tricky="a\"b\\c\nd"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestPrometheusHistogramCumulative checks bucket series are cumulative
// and end exactly at the total count.
func TestPrometheusHistogramCumulative(t *testing.T) {
	reg := obs.NewRegistry()
	for _, v := range []float64{0.0002, 0.003, 0.003, 7, 20000} {
		reg.Observe("d", v)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	last := int64(-1)
	infSeen := false
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "vb_d_bucket") {
			continue
		}
		fields := strings.Fields(line)
		n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket count in %q: %v", line, err)
		}
		if n < last {
			t.Errorf("bucket counts not cumulative: %d after %d in %q", n, last, line)
		}
		last = n
		if strings.Contains(line, `le="+Inf"`) {
			infSeen = true
			if n != 5 {
				t.Errorf("+Inf bucket = %d, want 5", n)
			}
		}
	}
	if !infSeen {
		t.Error("no +Inf bucket emitted")
	}
}

func TestServerEndpointsAndShutdown(t *testing.T) {
	reg := populated()
	srv := NewServer(reg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) ([]byte, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body, resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if n := checkPrometheusText(t, string(metrics)); n == 0 {
		t.Error("/metrics served no samples")
	}

	snapBody, ctype := get("/snapshot")
	if ctype != "application/json" {
		t.Errorf("/snapshot content type %q", ctype)
	}
	var snap obs.RegistrySnapshot
	if err := json.Unmarshal(snapBody, &snap); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if snap.Counters["mip.nodes"] != 42 {
		t.Errorf("snapshot mip.nodes = %v, want 42", snap.Counters["mip.nodes"])
	}
	if len(snap.CounterVecs["sim.planned_gb"].Values) != 2 {
		t.Errorf("snapshot lost vec series: %+v", snap.CounterVecs["sim.planned_gb"])
	}

	eventsBody, ctype := get("/events")
	if ctype != "application/x-ndjson" {
		t.Errorf("/events content type %q", ctype)
	}
	events, err := obs.ReadEvents(bytes.NewReader(eventsBody))
	if err != nil {
		t.Fatalf("/events not JSONL: %v", err)
	}
	if len(events) != 1 || events[0].Type != obs.ForcedMigration {
		t.Errorf("/events = %+v, want the one forced migration", events)
	}

	if _, ct := get("/debug/pprof/"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("pprof index content type %q", ct)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", addr)); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
}

// TestNilRegistryServer ensures the endpoints are safe with no registry.
func TestNilRegistryServer(t *testing.T) {
	srv := NewServer(nil)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, (*obs.Registry)(nil).Snapshot()); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	for _, path := range []string{"/metrics", "/snapshot", "/events"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with nil registry: status %d", path, resp.StatusCode)
		}
	}
}
