package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/vbcloud/vb/internal/cluster"
	"github.com/vbcloud/vb/internal/core"
)

// TestVMEngineSnapshotBackCompat pins gob snapshot compatibility with
// snapshots older engines wrote. Each fixture holds a run stopped halfway,
// and restoring it must still work and must finish the run with decisions
// byte-identical to an uninterrupted run of the same scenario:
//
//   - vmengine_legacy.snapshot (MIP) predates the SLO-class refactor: its
//     wire structs lack the per-class demand fields, and its scheduler
//     state carries per-app solver caches in the pre-sparse basis format;
//   - vmengine_mip24h_warm.snapshot (MIP-24h) was written while the
//     scheduler still cached per-app solver state: its scheduler state
//     carries sparse-LU solver payloads, some reused by replans before
//     the snapshot.
//
// Both kinds of solver state are skipped unread on restore. Regenerate a
// fixture only from a checkout of the code that wrote it:
//
//	VB_UPDATE_GOLDEN=1 go test -run SnapshotBackCompat/<name> ./internal/sim/
func TestVMEngineSnapshotBackCompat(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy core.Policy
		days   int
	}{
		{"vmengine_legacy", core.MIP, 2},
		{"vmengine_mip24h_warm", core.MIP24h, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkSnapshotBackCompat(t, filepath.Join("testdata", tc.name+".snapshot"), tc.policy, tc.days)
		})
	}
}

// checkSnapshotBackCompat restores the fixture at path, written halfway
// through a days-long run under policy, and requires the rest of the run
// to match an uninterrupted run decision for decision. With
// VB_UPDATE_GOLDEN set it writes the fixture instead.
func checkSnapshotBackCompat(t *testing.T, path string, policy core.Policy, days int) {
	in, apps := vmLevelFixtures(t, days)
	cfg := simConfig(policy)
	ccfg := cluster.DefaultConfig()
	arrivals := vmBatchArrivals(in, apps)

	// The uninterrupted reference run (same code version as the test run).
	full, err := NewVMEngine(cfg, in, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	fullReports := stepReports(t, full, arrivals)
	mid := full.Steps() / 2

	if os.Getenv("VB_UPDATE_GOLDEN") != "" {
		half, err := NewVMEngine(cfg, in, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		sortArrivals(arrivals)
		next := 0
		for half.Step() < mid {
			now := half.Now()
			var batch []AppArrival
			for next < len(arrivals) && !arrivals[next].Demand.Start.After(now) {
				batch = append(batch, arrivals[next])
				next++
			}
			if _, err := half.Advance(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := half.Snapshot(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s at step %d", path, mid)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing snapshot fixture (generate from the checkout that wrote it): %v", err)
	}
	restored, err := RestoreVMEngine(cfg, in, ccfg, bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("old snapshot no longer restores: %v", err)
	}
	if restored.Step() != mid {
		t.Fatalf("old snapshot restored at step %d, want %d", restored.Step(), mid)
	}
	// Replay the remaining arrivals and require byte-identical decisions.
	sortArrivals(arrivals)
	next := 0
	for next < len(arrivals) && !arrivals[next].Demand.Start.After(restored.base.TimeAt(mid-1)) {
		next++
	}
	for i := mid; !restored.Done(); i++ {
		now := restored.Now()
		var batch []AppArrival
		for next < len(arrivals) && !arrivals[next].Demand.Start.After(now) {
			batch = append(batch, arrivals[next])
			next++
		}
		rep, err := restored.Advance(batch)
		if err != nil {
			t.Fatal(err)
		}
		line, _ := json.Marshal(rep)
		if !bytes.Equal(line, fullReports[i]) {
			t.Fatalf("step %d decision record diverges after restoring an old snapshot:\nfull:     %s\nrestored: %s",
				i, fullReports[i], line)
		}
	}
	gr, gf := restored.Result(), full.Result()
	if gr.Moves != gf.Moves || gr.FailedPlacements != gf.FailedPlacements || gr.Fragmentation != gf.Fragmentation {
		t.Fatalf("restored result %+v != full %+v", gr, gf)
	}
}
