package vb

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden compares got with testdata/<name>. With VB_UPDATE_GOLDEN set
// it rewrites the file instead; do that only for an intentional, reviewed
// behaviour change.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("VB_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with VB_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s diverged:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestTable1ReportGolden pins the legacy-compatibility contract: the default
// Stable/Degradable Table 1 comparison at DefaultSeed must render byte-
// identically to the committed golden. The golden was captured before the
// SLO-class refactor, so any drift here means the refactor changed a legacy
// decision (RNG draw order, scheduler objective, pause ordering, ...), which
// is a bug, not a baseline to re-record.
//
// Regenerate (only for an intentional, reviewed behaviour change) with:
//
//	VB_UPDATE_GOLDEN=1 go test -run Table1ReportGolden .
func TestTable1ReportGolden(t *testing.T) {
	res, err := Table1PolicyComparison(Table1Setup{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1_seed.golden", res.Report())
}

// TestFig4ReportGolden pins every packing decision of the 28-day Fig 4 run
// for wind and solar: the rendered report, plus a SHA-256 over each step's
// StepResult fields and the exact bits of its utilization. The report alone
// rounds traffic to whole GB; the digest catches any moved VM.
//
// Regenerate (only for an intentional, reviewed behaviour change) with:
//
//	VB_UPDATE_GOLDEN=1 go test -run Fig4ReportGolden .
func TestFig4ReportGolden(t *testing.T) {
	var b strings.Builder
	for _, src := range []Source{Wind, Solar} {
		r, err := Fig4Migration(DefaultSeed, src, 28)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(r.Report())
		h := sha256.New()
		var buf [8]byte
		word := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for i, s := range r.Run.Steps {
			word(math.Float64bits(s.OutGB))
			word(math.Float64bits(s.InGB))
			word(uint64(s.Evicted))
			word(uint64(s.Launched))
			word(uint64(s.RejectedNew))
			word(uint64(s.Departed))
			word(math.Float64bits(r.Run.Utilization.Values[i]))
		}
		fmt.Fprintf(&b, "  steps: %d, sha256: %x\n", len(r.Run.Steps), h.Sum(nil))
	}
	checkGolden(t, "fig4_seed.golden", b.String())
}
