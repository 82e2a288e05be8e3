package cluster

import (
	"cmp"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/energy"
	"github.com/vbcloud/vb/internal/stats"
	"github.com/vbcloud/vb/internal/trace"
	"github.com/vbcloud/vb/internal/workload"
)

func windPower(t *testing.T, days int) trace.Series {
	t.Helper()
	w := energy.NewWorld(42)
	cfgs := []energy.SiteConfig{{Name: "W", Source: energy.Wind, Latitude: 53.5, Longitude: -1.5, CapacityMW: 400}}
	series, err := w.Generate(cfgs, time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC), 15*time.Minute, days*96)
	if err != nil {
		t.Fatal(err)
	}
	return series[0]
}

func arrivalTrace(t *testing.T, days int, rate float64) []workload.VM {
	t.Helper()
	vms, err := workload.Generate(workload.Config{
		Seed:                9,
		Start:               time.Date(2020, 4, 30, 0, 0, 0, 0, time.UTC),
		Duration:            time.Duration(days+1) * 24 * time.Hour,
		MeanArrivalsPerHour: rate,
		StableFraction:      0.7,
		LongRunningFraction: 0.3,
		MedianLifetime:      6 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vms
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(DefaultConfig(), trace.Series{}, nil, 0); err == nil {
		t.Error("empty power should error")
	}
	p := trace.FromValues(t0, time.Hour, []float64{1})
	if _, err := Run(DefaultConfig(), p, nil, -1); err == nil {
		t.Error("negative warmup should error")
	}
	if _, err := Run(Config{}, p, nil, 0); err == nil {
		t.Error("bad config should error")
	}
	// A zero step divided by zero in the arrival bucketing; a negative one
	// mapped every later arrival to a negative step and ran the clock
	// backward.
	vms := []workload.VM{mkVM(1, 2, 8)}
	for _, step := range []time.Duration{0, -time.Hour} {
		p := trace.Series{Start: t0, Step: step, Values: []float64{1, 1}}
		if _, err := Run(smallConfig(), p, vms, 1); err == nil || !strings.Contains(err.Error(), "step") {
			t.Errorf("power step %v: error %v, want one naming the step", step, err)
		}
	}
}

// refRun is Run with the plainest bucketing: a copy of every in-window VM
// in a bucket per step, each sorted by ID.
func refRun(cfg Config, power trace.Series, vms []workload.VM, warmup int) (RunResult, error) {
	site, err := New(cfg)
	if err != nil {
		return RunResult{}, err
	}
	warmStart := power.Start.Add(-time.Duration(warmup) * power.Step)
	total := warmup + power.Len()
	buckets := make([][]workload.VM, total)
	for _, vm := range vms {
		if d := vm.Arrival.Sub(warmStart); d >= 0 && int(d/power.Step) < total {
			k := int(d / power.Step)
			buckets[k] = append(buckets[k], vm)
		}
	}
	res := RunResult{
		Power:       power.Clone(),
		OutGB:       trace.New(power.Start, power.Step, power.Len()),
		InGB:        trace.New(power.Start, power.Step, power.Len()),
		Utilization: trace.New(power.Start, power.Step, power.Len()),
		Steps:       make([]StepResult, power.Len()),
	}
	for i, b := range buckets {
		slices.SortFunc(b, func(a, b workload.VM) int { return cmp.Compare(a.ID, b.ID) })
		frac := 1.0
		if i >= warmup {
			frac = power.Values[i-warmup]
		}
		step := site.step(warmStart.Add(time.Duration(i)*power.Step), frac, b)
		if i >= warmup {
			j := i - warmup
			res.Steps[j] = step
			res.OutGB.Values[j] = step.OutGB
			res.InGB.Values[j] = step.InGB
			res.Utilization.Values[j] = site.Utilization()
		}
	}
	return res, nil
}

// TestRunMatchesSlabBuckets holds Run's index-order bucketing and reused
// arrival buffer to refRun on traces whose order, window and step widths
// the generator never produces.
func TestRunMatchesSlabBuckets(t *testing.T) {
	power := windPower(t, 3)
	shuffled := arrivalTrace(t, 3, 60)
	rand.New(rand.NewPCG(7, 8)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	// A trace from a day before the warm-up to a day past the series.
	wide, err := workload.Generate(workload.Config{
		Seed:                11,
		Start:               t0.Add(-48 * time.Hour),
		Duration:            6 * 24 * time.Hour,
		MeanArrivalsPerHour: 40,
		StableFraction:      0.7,
		LongRunningFraction: 0.3,
		MedianLifetime:      6 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One arrival an hour leaves most 15-minute steps empty.
	sparse := arrivalTrace(t, 3, 1)
	busy := map[int64]bool{}
	for _, vm := range sparse {
		busy[vm.Arrival.UnixNano()/int64(power.Step)] = true
	}
	if len(busy) > power.Len()/2 {
		t.Fatalf("%d of %d steps have arrivals; want most empty", len(busy), power.Len())
	}
	// Hundreds of VMs with descending IDs crowd one step.
	var crowd []workload.VM
	for k := range 400 {
		crowd = append(crowd, workload.VM{
			ID:       1000 - k,
			Cores:    1 + k%8,
			MemoryGB: 4 + k%32,
			Class:    workload.Class(k % 2),
			Arrival:  t0.Add(6*time.Hour + time.Duration(k)*time.Second),
			Lifetime: time.Duration(1+k%5) * time.Hour,
		})
	}
	crowd = append(crowd, arrivalTrace(t, 3, 20)[:300]...)
	for i := range crowd[400:] {
		crowd[400+i].ID += 2000
	}
	// Sites small enough for the sparse and crowded traces to migrate VMs.
	tiny := Config{Servers: 4, CoresPerServer: 40, MemPerServerGB: 512, TargetUtilization: 0.7}
	small := Config{Servers: 20, CoresPerServer: 40, MemPerServerGB: 512, TargetUtilization: 0.7}
	cases := []struct {
		name   string
		cfg    Config
		vms    []workload.VM
		warmup int
	}{
		{"shuffled", DefaultConfig(), shuffled, 96},
		{"outside the window", DefaultConfig(), wide, 48},
		{"no warm-up", DefaultConfig(), wide, 0},
		{"empty steps", tiny, sparse, 96},
		{"crowded step", small, crowd, 24},
	}
	for _, c := range cases {
		got, err := Run(c.cfg, power, c.vms, c.warmup)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := refRun(c.cfg, power, c.vms, c.warmup)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Run differs from the slab-bucketed reference", c.name)
		}
		if got.TotalOutGB() == 0 || got.TotalInGB() == 0 {
			t.Errorf("%s: %v GB out, %v GB in; the case should migrate both ways", c.name, got.TotalOutGB(), got.TotalInGB())
		}
	}
}

func TestRunConstantPowerNoMigration(t *testing.T) {
	// Constant full power must never migrate.
	p := trace.New(t0, 15*time.Minute, 96)
	for i := range p.Values {
		p.Values[i] = 1
	}
	cfg := Config{Servers: 20, CoresPerServer: 10, MemPerServerGB: 100, TargetUtilization: 0.7}
	vms := arrivalTrace(t, 1, 5)
	res, err := Run(cfg, p, vms, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOutGB() != 0 {
		t.Errorf("constant power should not evict, got %v GB out", res.TotalOutGB())
	}
	if res.FractionQuietChanges() != 1 {
		t.Errorf("no power changes -> quiet fraction 1, got %v", res.FractionQuietChanges())
	}
}

// TestRunFig4Shape checks the headline Fig 4a observations on a week of wind
// power: most power changes incur no migrations (>80% in the paper), but the
// ones that do move large volumes.
func TestRunFig4Shape(t *testing.T) {
	power := windPower(t, 10)
	vms := arrivalTrace(t, 10, 60)
	res, err := Run(DefaultConfig(), power, vms, 96)
	if err != nil {
		t.Fatal(err)
	}
	quiet := res.FractionQuietChanges()
	if quiet < 0.7 {
		t.Errorf("quiet-change fraction = %v, want most drops absorbed (paper: >0.8)", quiet)
	}
	if res.TotalOutGB() == 0 {
		t.Error("a week of wind should force some evictions")
	}
	if res.TotalInGB() == 0 {
		t.Error("power recoveries should relaunch VMs")
	}
	// Migration overhead is bursty: p99 well above the median of non-zero
	// transfers.
	nz := res.OutGB.NonZero(1e-9)
	if len(nz) > 10 {
		q, err := stats.Quantiles(nz, 50, 99)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Ratio(q[1], q[0]) < 2 {
			t.Errorf("out-migration p99/p50 = %v, expected bursty (paper: 12.5-16x)", stats.Ratio(q[1], q[0]))
		}
	}
	// Utilization stays at or below the admission target with small
	// overshoot tolerance.
	if res.Utilization.Max() > 0.71 {
		t.Errorf("utilization peaked at %v, admission should cap at 0.70", res.Utilization.Max())
	}
}

func TestRunWarmupExcluded(t *testing.T) {
	power := windPower(t, 3)
	vms := arrivalTrace(t, 3, 30)
	res, err := Run(DefaultConfig(), power, vms, 48)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutGB.Len() != power.Len() || res.InGB.Len() != power.Len() {
		t.Errorf("result series must match power length")
	}
	if !res.OutGB.Start.Equal(power.Start) {
		t.Error("result series must start at power start")
	}
}

func TestRunDeterministic(t *testing.T) {
	power := windPower(t, 2)
	vms := arrivalTrace(t, 2, 20)
	a, err := Run(DefaultConfig(), power, vms, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig(), power, vms, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.OutGB.Values {
		if a.OutGB.Values[i] != b.OutGB.Values[i] || a.InGB.Values[i] != b.InGB.Values[i] {
			t.Fatalf("step %d differs between identical runs", i)
		}
	}
}

// TestRunRejectsBadVMs checks that Run validates its VM list before
// stepping: every bad VM is named by its index and ID, including one that
// arrives outside the power window.
func TestRunRejectsBadVMs(t *testing.T) {
	p := trace.FromValues(t0, time.Hour, []float64{1, 1})
	good := func(id int) workload.VM { return mkVM(id, 2, 8) }
	cases := []struct {
		name string
		bad  workload.VM
		want string
	}{
		{"repeated ID", good(1), "VM 2 (ID 1): repeats the ID of VM 0"},
		{"zero cores", mkVM(9, 0, 8), "VM 2 (ID 9)"},
		{"negative cores", mkVM(9, -2, 8), "VM 2 (ID 9)"},
		{"zero memory", mkVM(9, 2, 0), "VM 2 (ID 9)"},
		{"negative lifetime", workload.VM{ID: 9, Cores: 2, MemoryGB: 8, Arrival: t0, Lifetime: -time.Minute}, "VM 2 (ID 9)"},
		{"unknown class", workload.VM{ID: 9, Cores: 2, MemoryGB: 8, Arrival: t0, Class: workload.Batch + 1}, "VM 2 (ID 9): unknown class"},
		{"outside the window", workload.VM{ID: 1, Cores: 2, MemoryGB: 8, Arrival: t0.Add(-48 * time.Hour)}, "VM 2 (ID 1)"},
	}
	for _, c := range cases {
		vms := []workload.VM{good(1), good(2), c.bad}
		_, err := Run(smallConfig(), p, vms, 0)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
	if _, err := Run(smallConfig(), p, []workload.VM{good(1), good(2), good(3)}, 0); err != nil {
		t.Errorf("valid VMs rejected: %v", err)
	}
}
