package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestStdoutIsReproducible holds vbsched's stdout to a function of its
// flags: a plain run, a -metrics run and a -trace run print the same
// bytes. The wall-clock solver latencies an attached registry measures go
// to stderr, and a plain run prints nothing there.
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
}
