package energy

import (
	"runtime"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/trace"
)

// generateWith runs World.Generate over the 12-site fleet at the given
// GOMAXPROCS, which is the fan-out worker count, restoring it afterwards.
func generateWith(t *testing.T, procs int) []trace.Series {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	w := NewWorld(42)
	out, err := w.Generate(EuropeanFleet(0), start, 15*time.Minute, 14*96)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGenerateParallelDeterminism asserts the tentpole guarantee: the
// fanned-out per-site pass produces bit-identical series for every
// GOMAXPROCS setting, because each site draws only from its own name-keyed
// sub-RNG after the shared anchor pass.
func TestGenerateParallelDeterminism(t *testing.T) {
	serial := generateWith(t, 1)
	cases := []struct {
		name  string
		procs int
	}{
		{"GOMAXPROCS=2", 2},
		{"GOMAXPROCS=NumCPU", runtime.NumCPU()},
		{"GOMAXPROCS=32", 32},
	}
	for _, tc := range cases {
		got := generateWith(t, tc.procs)
		if len(got) != len(serial) {
			t.Fatalf("%s: %d series, want %d", tc.name, len(got), len(serial))
		}
		for si := range got {
			if !got[si].Start.Equal(serial[si].Start) || got[si].Step != serial[si].Step {
				t.Fatalf("%s: series %d time base differs", tc.name, si)
			}
			for i := range got[si].Values {
				if got[si].Values[i] != serial[si].Values[i] {
					t.Fatalf("%s: series %d sample %d: %v != %v (parallel output must be bit-identical)",
						tc.name, si, i, got[si].Values[i], serial[si].Values[i])
				}
			}
		}
	}
}

// TestBestWindowUnalignedFinalStart is the boundary regression for the
// quarter-window stride: when the series length is not hop-aligned, the
// final valid start must still be searched.
func TestBestWindowUnalignedFinalStart(t *testing.T) {
	cases := []struct {
		name    string
		n       int // series length in hours
		windowH int
		wantIdx int
	}{
		// k=8, hop=2, last=93: 93%2 != 0, reachable only via the explicit
		// final evaluation.
		{"unaligned final start", 101, 8, 93},
		// k=8, hop=2, last=92: aligned, the stride reaches it naturally.
		{"aligned final start", 100, 8, 92},
		// k=3, hop=0->1: every start visited.
		{"hop clamped to 1", 10, 3, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := trace.New(start, time.Hour, tc.n)
			// Flat zero power except a full-power plateau filling exactly the
			// final window: its stable fraction is 1, every other window < 1.
			for i := tc.n - tc.windowH; i < tc.n; i++ {
				s.Values[i] = 5
			}
			idx, frac, err := BestWindow([]trace.Series{s}, time.Duration(tc.windowH)*time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if idx != tc.wantIdx {
				t.Errorf("best window start = %d, want %d (final-start handling)", idx, tc.wantIdx)
			}
			if frac != 1 {
				t.Errorf("stable fraction = %v, want 1", frac)
			}
		})
	}
}
