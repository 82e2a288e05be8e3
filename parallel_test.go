package vb

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/workload"
)

// TestBestSpreadWindowLastSlot is the Fig 2a off-by-one regression: a
// max-spread window planted in the year's final slot (start day 361) must be
// found. The old loop bound (d+4 <= 364) stopped at day 360 and could never
// return it.
func TestBestSpreadWindowLastSlot(t *testing.T) {
	const days, win, spd = 365, 4, 96
	s := NewSeries(experimentStart, 15*time.Minute, days*spd)
	// Every day peaks at 0.5, except the very last day of the year which
	// peaks at 1.0: the only window with nonzero spread starts at day 361.
	for d := 0; d < days; d++ {
		s.Values[d*spd+48] = 0.5
	}
	s.Values[364*spd+48] = 1.0
	if got := bestSpreadWindow(s, days, win, spd); got != days-win {
		t.Errorf("best window start = %d, want %d (final slot must be searched)", got, days-win)
	}
	// And symmetrically at the front, the scan still finds an early window.
	s.Values[364*spd+48] = 0.5
	s.Values[0*spd+48] = 1.0
	if got := bestSpreadWindow(s, days, win, spd); got != 0 {
		t.Errorf("best window start = %d, want 0", got)
	}
}

// TestCovPairSweepCoversFullYear pins the §2.3 sweep boundary fix: the 24
// window starts begin at day 0, increase monotonically, and the final 72 h
// window ends exactly at day 365 (the old 15-day spacing stopped at day 348,
// never sampling the last 16 days).
func TestCovPairSweepCoversFullYear(t *testing.T) {
	if first := covPairStartDay(0); first != 0 {
		t.Errorf("first interval starts day %d, want 0", first)
	}
	last := covPairStartDay(covPairIntervals - 1)
	if last+covPairWindowDays != 365 {
		t.Errorf("last interval covers days %d-%d, want it to end at day 365", last, last+covPairWindowDays)
	}
	for m := 1; m < covPairIntervals; m++ {
		if covPairStartDay(m) <= covPairStartDay(m-1) {
			t.Errorf("interval starts not strictly increasing at m=%d", m)
		}
	}
}

// TestAppDemandsRejectsZeroCoreApp covers the MemGBPerCore NaN guard at both
// layers: the conversion helper refuses a zero-core app, and a NaN that
// somehow reaches an AppDemand is caught by sim.Input.Validate instead of
// passing every threshold comparison.
func TestAppDemandsRejectsZeroCoreApp(t *testing.T) {
	good := workload.App{ID: 1, VMs: []workload.VM{{ID: 1, Cores: 2, MemoryGB: 4}}}
	if _, err := appDemands([]workload.App{good}); err != nil {
		t.Fatalf("valid app rejected: %v", err)
	}
	for _, bad := range []workload.App{
		{ID: 2},                              // no VMs
		{ID: 3, VMs: []workload.VM{{ID: 2}}}, // zero-core VM
		{ID: 4, VMs: []workload.VM{{ID: 3, Cores: 0, MemoryGB: 8}}}, // zero cores, memory set
	} {
		if _, err := appDemands([]workload.App{bad}); err == nil {
			t.Errorf("app %d: zero-core app must be rejected, got nil error", bad.ID)
		}
	}

	nan := AppDemand{ID: 9, Cores: 10, StableCores: 5, MemGBPerCore: math.NaN(), Start: experimentStart}
	if err := nan.Validate(); err == nil {
		t.Error("NaN MemGBPerCore must fail AppDemand.Validate")
	}
	inf := AppDemand{ID: 10, Cores: math.Inf(1), StableCores: 5, MemGBPerCore: 4, Start: experimentStart}
	if err := inf.Validate(); err == nil {
		t.Error("Inf Cores must fail AppDemand.Validate")
	}
}

// hashAll fingerprints an AllExperimentsResult. fmt's %v is deterministic
// (maps print in sorted key order; floats use the shortest round-trippable
// form), so equal hashes mean bit-identical results.
func hashAll(r AllExperimentsResult) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%v", r))))
}

// withProcs sets GOMAXPROCS, which is the fan-out worker count, for the
// rest of the test and restores it when the test ends.
func withProcs(t *testing.T, procs int) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestRunAllExperimentsParallelDeterminism is the acceptance golden-hash
// test: the full figure/table suite at DefaultSeed is bit-identical between
// the serial path (GOMAXPROCS=1) and the parallel path (at least four
// workers, even on a smaller machine).
func TestRunAllExperimentsParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite twice")
	}
	withProcs(t, 1)
	serial, err := RunAllExperiments(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	want := hashAll(serial)

	procs := max(4, runtime.NumCPU())
	withProcs(t, procs)
	parallel, err := RunAllExperiments(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashAll(parallel); got != want {
		t.Errorf("GOMAXPROCS=%d result hash %s != serial %s", procs, got, want)
	}

	if rep := serial.Report(); !strings.Contains(rep, "Fig 2a") ||
		!strings.Contains(rep, "Table 1") || !strings.Contains(rep, "Fig 6") {
		t.Error("Report should include every figure and table")
	}
}

// TestWorldGenerateSerialParallelIdentical asserts the same guarantee at the
// World.Generate layer through the public API, across GOMAXPROCS settings
// (golden hash over all samples).
func TestWorldGenerateSerialParallelIdentical(t *testing.T) {
	gen := func(procs int) string {
		withProcs(t, procs)
		w := NewWorld(DefaultSeed)
		series, err := w.Generate(EuropeanFleet(0), experimentStart, 15*time.Minute, 7*96)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, s := range series {
			for _, v := range s.Values {
				fmt.Fprintf(h, "%x;", math.Float64bits(v))
			}
			h.Write([]byte("|"))
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	want := gen(1)
	for _, procs := range []int{runtime.NumCPU(), 4, 64} {
		if got := gen(procs); got != want {
			t.Errorf("GOMAXPROCS=%d: hash %s != serial %s", procs, got, want)
		}
	}
}
