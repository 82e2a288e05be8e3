package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/vbcloud/vb"
)

// TestStdoutIsReproducible holds vbsched's stdout to a function of its
// flags: a plain run, a -metrics run and a -trace run print the same
// bytes. The wall-clock solver latencies an attached registry measures go
// to stderr, and a plain run prints nothing there. The manifest the
// -metrics run writes decodes and re-encodes to the same bytes.
func TestStdoutIsReproducible(t *testing.T) {
	dir := t.TempDir()
	runOut := func(extra ...string) (stdout, stderr string) {
		t.Helper()
		var out, errOut bytes.Buffer
		args := append([]string{"-days", "2", "-policy", "MIP"}, extra...)
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("vbsched %v: %v", args, err)
		}
		return out.String(), errOut.String()
	}
	plain, plainErr := runOut()
	if !strings.Contains(plain, "MIP") || plainErr != "" {
		t.Fatalf("plain run printed stdout %q and stderr %q", plain, plainErr)
	}
	for _, extra := range [][]string{
		{"-metrics", filepath.Join(dir, "run.json")},
		{"-trace", filepath.Join(dir, "run.jsonl")},
	} {
		got, gotErr := runOut(extra...)
		if got != plain {
			t.Errorf("vbsched %v stdout differs from a plain run:\n%s\nplain:\n%s", extra, got, plain)
		}
		if !strings.Contains(gotErr, "solver:") {
			t.Errorf("vbsched %v stderr %q lacks the solver latency line", extra, gotErr)
		}
	}

	// The -metrics file decodes as a RunManifest carrying the run's seed,
	// policy and group, and re-encoding it with WriteJSON reproduces the
	// file byte for byte.
	raw, err := os.ReadFile(filepath.Join(dir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m vb.RunManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("decoding the -metrics file: %v", err)
	}
	if m.Seed != 42 || m.Policy != "MIP" ||
		!reflect.DeepEqual(m.Fleet, []string{"NO-solar", "UK-wind", "PT-wind"}) {
		t.Errorf("manifest seed %d, policy %q, fleet %v; want 42, MIP and the trio", m.Seed, m.Policy, m.Fleet)
	}
	if m.Counters["scheduler.placements"] == 0 || len(m.Events) == 0 {
		t.Errorf("manifest holds no placement counter or event totals: %+v", m.RegistrySnapshot)
	}
	var again bytes.Buffer
	if err := m.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Errorf("re-encoded manifest differs from the written file:\n%s\nwritten:\n%s", again.Bytes(), raw)
	}
}
