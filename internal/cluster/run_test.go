package cluster

import (
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
