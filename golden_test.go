package vb

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/vbcloud/vb/internal/sim"
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

// TestTable1PlanDigestGolden pins every bit of every Table 1 plan at
// DefaultSeed. Report rounds to whole GB, so TestTable1ReportGolden passes a
// plan that moved by one ulp; this test hashes, per policy, the exact bits
// of each step's Transfer, InBySite and OutBySite values, the run totals,
// and the per-app maps in ascending app order.
//
// Regenerate (only for an intentional, reviewed behaviour change) with:
//
//	VB_UPDATE_GOLDEN=1 go test -run Table1PlanDigestGolden .
func TestTable1PlanDigestGolden(t *testing.T) {
	s := Table1Setup{}.withDefaults()
	sc, err := table1Scenario(s, table1Start, EuropeanTrio())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, pol := range s.Policies {
		r, err := sim.Run(table1Config(s, pol), sc.in)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [8]byte
		word := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for i, v := range r.Transfer.Values {
			word(math.Float64bits(v))
			for site := range r.InBySite {
				word(math.Float64bits(r.InBySite[site].Values[i]))
				word(math.Float64bits(r.OutBySite[site].Values[i]))
			}
		}
		for _, v := range []float64{r.PlannedGB, r.ForcedGB, r.PausedStableCoreSteps, r.ShortfallCoreSteps} {
			word(math.Float64bits(v))
		}
		word(uint64(r.Placements))
		for _, m := range []map[int]float64{r.PerApp, r.PerAppPaused, r.PerAppDemand} {
			ids := make([]int, 0, len(m))
			for id := range m {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			word(uint64(len(ids)))
			for _, id := range ids {
				word(uint64(id))
				word(math.Float64bits(m[id]))
			}
		}
		fmt.Fprintf(&b, "%-9s steps: %d, apps: %d, sha256: %x\n", pol, r.Transfer.Len(), len(r.PerAppDemand), h.Sum(nil))
	}
	checkGolden(t, "table1_plan.golden", b.String())
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

// TestRegistryDigestGolden pins what the engines record into a registry at
// DefaultSeed: the counters, counter vecs and per-type event totals of a
// 3-day Table 1 comparison, and of one VM-level run per policy on the same
// scenario, each hashed by hashAll. Histograms hold wall-clock spans and
// are left out.
//
// Regenerate (only for an intentional, reviewed behaviour change) with:
//
//	VB_UPDATE_GOLDEN=1 go test -run RegistryDigestGolden .
func TestRegistryDigestGolden(t *testing.T) {
	digest := func(reg *MetricsRegistry) string {
		s := reg.Snapshot()
		return hashAll([]any{s.Counters, s.CounterVecs, s.Events})
	}
	var b strings.Builder
	reg := NewMetrics()
	if _, err := Table1PolicyComparison(Table1Setup{Days: 3, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "table1  sha256: %s\n", digest(reg))

	reg = NewMetrics()
	s := Table1Setup{Days: 3, Obs: reg}.withDefaults()
	sc, err := table1Scenario(s, table1Start, EuropeanTrio())
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range s.Policies {
		if _, err := RunPolicyVMLevel(table1Config(s, pol), sc.in, sc.apps, DefaultClusterConfig()); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
	fmt.Fprintf(&b, "vmlevel sha256: %s\n", digest(reg))
	checkGolden(t, "registry_seed.golden", b.String())
}

// TestExperimentsGolden pins every multi-VB experiment at DefaultSeed: the
// whole figure/table suite, every ablation and the extensions that run the
// Table 1 scenario. Each entry holds the result's report and the SHA-256 of
// its %v form (hashAll), so a plan that moves by one ulp fails even where
// the report rounds it away.
//
// Regenerate (only for an intentional, reviewed behaviour change) with:
//
//	VB_UPDATE_GOLDEN=1 go test -run ExperimentsGolden .
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every multi-VB experiment")
	}
	var b strings.Builder
	add := func(name, report string, result any) {
		fmt.Fprintf(&b, "== %s sha256: %s\n%s", name, hashAll(result), report)
	}
	all, err := RunAllExperiments(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	add("RunAllExperiments", all.Report(), all)
	for _, ab := range []struct {
		name string
		run  func(uint64) ([]AblationResult, error)
	}{
		{"AblationCliqueSize", AblationCliqueSize},
		{"AblationPeakWeight", AblationPeakWeight},
		{"AblationUtilization", AblationUtilization},
		{"AblationSeason", AblationSeason},
		{"AblationForecastError", AblationForecastError},
		{"AblationHorizon", AblationHorizon},
		{"AblationGroupSize", AblationGroupSize},
	} {
		rs, err := ab.run(DefaultSeed)
		if err != nil {
			t.Fatalf("%s: %v", ab.name, err)
		}
		var rep strings.Builder
		for _, r := range rs {
			fmt.Fprintf(&rep, "%s: %s", r.Label, r.Result.Report())
		}
		add(ab.name, rep.String(), rs)
	}
	fid, err := Fidelity(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	add("Fidelity", fmt.Sprintf("%+v\n", fid), fid)
	mr, err := MigrationRealism(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	add("MigrationRealism", fmt.Sprintf("%+v\n", mr), mr)
	rm, err := ReplicationVsMigration(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	add("ReplicationVsMigration", fmt.Sprintf("%+v\n", rm), rm)
	checkGolden(t, "experiments_seed.golden", b.String())
}
