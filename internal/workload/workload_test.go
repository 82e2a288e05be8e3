package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var start = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

func baseConfig() Config {
	return Config{
		Seed:                1,
		Start:               start,
		Duration:            7 * 24 * time.Hour,
		MeanArrivalsPerHour: 50,
		StableFraction:      0.7,
		LongRunningFraction: 0.2,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := baseConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.MeanArrivalsPerHour = 0 },
		func(c *Config) { c.StableFraction = 1.5 },
		func(c *Config) { c.StableFraction = -0.1 },
		func(c *Config) { c.LongRunningFraction = 2 },
	}
	for i, mut := range bad {
		c := baseConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// NaN fails every comparison and +Inf passes "> 0": each non-finite
	// value must be refused by name.
	fields := map[string]func(*Config, float64){
		"MeanArrivalsPerHour": func(c *Config, x float64) { c.MeanArrivalsPerHour = x },
		"StableFraction":      func(c *Config, x float64) { c.StableFraction = x },
		"LongRunningFraction": func(c *Config, x float64) { c.LongRunningFraction = x },
	}
	for name, set := range fields {
		for _, x := range nonFinite {
			c := baseConfig()
			set(&c, x)
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s = %v: error %v, want one naming the field", name, x, err)
			}
		}
	}
}

var nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// TestValidateRefusesHugeWorkloads bounds what each generator may be asked
// for. A finite rate near the float range clamps every gap to 1 ns and a
// huge mean app size loops its size draw about that many times, so each
// validator must refuse them by name, while the largest workloads the
// experiments use stay valid. Only Validate runs: a generator at such a
// rate would not return.
func TestValidateRefusesHugeWorkloads(t *testing.T) {
	year := Config{Duration: 365 * 24 * time.Hour, MeanArrivalsPerHour: 60, StableFraction: 0.7}
	if err := year.Validate(); err != nil {
		t.Errorf("a 365-day trace at 60 VMs/h: %v", err)
	}
	for _, rate := range []float64{1e300, 1e5} {
		c := year
		c.MeanArrivalsPerHour = rate
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "MeanArrivalsPerHour") {
			t.Errorf("MeanArrivalsPerHour = %v: error %v, want one naming the field", rate, err)
		}
	}

	week := AppConfig{Duration: 7 * 24 * time.Hour, MeanAppsPerDay: 6, MeanVMsPerApp: 80, StableFraction: 0.7}
	if err := week.Validate(); err != nil {
		t.Errorf("a week of 6 apps/day at 80 VMs: %v", err)
	}
	apps := map[string]func(*AppConfig){
		"MeanAppsPerDay": func(c *AppConfig) { c.MeanAppsPerDay = 1e300 },
		"MeanVMsPerApp":  func(c *AppConfig) { c.MeanVMsPerApp = 1e300 },
	}
	for name, set := range apps {
		c := week
		set(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s huge: error %v, want one naming the field", name, err)
		}
	}

	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	specs := map[string]func(*TraceSpec, float64){
		"duration":          func(s *TraceSpec, x float64) { s.DurationHours = x },
		"apps per day":      func(s *TraceSpec, x float64) { s.AppsPerDay = x },
		"diurnal amplitude": func(s *TraceSpec, x float64) { s.DiurnalAmplitude = x },
		"rate share":        func(s *TraceSpec, x float64) { s.Cohorts[1].RateShare = x },
		"shape":             func(s *TraceSpec, x float64) { s.Cohorts[1].Shape = x },
		"mean VMs per app":  func(s *TraceSpec, x float64) { s.Cohorts[1].MeanVMsPerApp = x },
		"median lifetime":   func(s *TraceSpec, x float64) { s.Cohorts[1].MedianLifetimeHours = x },
		"long-running":      func(s *TraceSpec, x float64) { s.Cohorts[1].LongRunningFraction = x },
	}
	for name, set := range specs {
		for _, x := range nonFinite {
			s := testSpec()
			set(&s, x)
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("spec %s = %v: error %v, want one naming the field", name, x, err)
			}
		}
	}
	// Rate shares are normalized, so of the finite fields only these three
	// scale the work a spec asks for.
	for _, name := range []string{"duration", "apps per day", "mean VMs per app"} {
		s := testSpec()
		specs[name](&s, 1e300)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("spec %s = 1e300: error %v, want one naming the field", name, err)
		}
	}
}

// TestGeneratorsTinyRate pins that in all three generators a rate so small
// that a gap overflows a Duration ends the trace: converting the gap would
// wrap it to a negative Duration, which the 1 ns clamp turned into one
// arrival per nanosecond.
func TestGeneratorsTinyRate(t *testing.T) {
	vms, err := Generate(Config{Seed: 1, Start: start, Duration: time.Microsecond, MeanArrivalsPerHour: 1e-12})
	if err != nil || len(vms) != 0 {
		t.Errorf("Generate at 1e-12 per hour over 1 µs: %d VMs, %v; want none", len(vms), err)
	}
	apps, err := GenerateApps(AppConfig{Seed: 1, Start: start, Duration: time.Microsecond, MeanAppsPerDay: 1e-12, MeanVMsPerApp: 1})
	if err != nil || len(apps) != 0 {
		t.Errorf("GenerateApps at 1e-12 per day over 1 µs: %d apps, %v; want none", len(apps), err)
	}
	spec := testSpec()
	spec.DurationHours = 1 / 3.6e9 // 1 µs
	spec.AppsPerDay = 1e-12
	apps, err = GenerateCohorts(spec)
	if err != nil || len(apps) != 0 {
		t.Errorf("GenerateCohorts at 1e-12 per day over 1 µs: %d apps, %v; want none", len(apps), err)
	}
}

func TestGenerateBasics(t *testing.T) {
	cfg := baseConfig()
	vms, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Expect roughly rate*hours arrivals.
	expected := cfg.MeanArrivalsPerHour * cfg.Duration.Hours()
	if float64(len(vms)) < 0.8*expected || float64(len(vms)) > 1.2*expected {
		t.Errorf("got %d VMs, want ~%.0f", len(vms), expected)
	}
	end := cfg.Start.Add(cfg.Duration)
	seen := map[int]bool{}
	for i, v := range vms {
		if v.Arrival.Before(cfg.Start) || !v.Arrival.Before(end) {
			t.Fatalf("VM %d arrival %v outside window", v.ID, v.Arrival)
		}
		if i > 0 && vms[i].Arrival.Before(vms[i-1].Arrival) {
			t.Fatal("VMs not sorted by arrival")
		}
		if v.Cores <= 0 || v.MemoryGB <= 0 {
			t.Fatalf("VM %d has empty shape", v.ID)
		}
		if seen[v.ID] {
			t.Fatalf("duplicate VM ID %d", v.ID)
		}
		seen[v.ID] = true
	}
}

func TestGenerateInvalid(t *testing.T) {
	cfg := baseConfig()
	cfg.Duration = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("invalid config should error")
	}
	// A non-finite rate is an error, not one arrival per nanosecond.
	for _, x := range nonFinite {
		vms, err := Generate(Config{Seed: 1, Start: start, Duration: time.Microsecond, MeanArrivalsPerHour: x})
		if err == nil {
			t.Errorf("Generate at rate %v: %d VMs, want an error", x, len(vms))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("VM %d differs", i)
		}
	}
	cfg := baseConfig()
	cfg.Seed = 2
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i].Arrival != c[i].Arrival {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds should differ")
		}
	}
}

func TestClassMix(t *testing.T) {
	vms, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	stable := 0
	for _, v := range vms {
		if v.Class == Stable {
			stable++
		}
	}
	frac := float64(stable) / float64(len(vms))
	if math.Abs(frac-0.7) > 0.05 {
		t.Errorf("stable fraction = %v, want ~0.7", frac)
	}
}

func TestLifetimes(t *testing.T) {
	cfg := baseConfig()
	cfg.MedianLifetime = 2 * time.Hour
	vms, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var finite []float64
	longRunning := 0
	for _, v := range vms {
		if v.Lifetime == 0 {
			longRunning++
			if !v.End().IsZero() {
				t.Fatal("long-running VM End should be zero time")
			}
			continue
		}
		if v.Lifetime < time.Minute {
			t.Fatalf("lifetime %v below floor", v.Lifetime)
		}
		if got := v.End(); !got.Equal(v.Arrival.Add(v.Lifetime)) {
			t.Fatal("End mismatch")
		}
		finite = append(finite, v.Lifetime.Hours())
	}
	frac := float64(longRunning) / float64(len(vms))
	if math.Abs(frac-0.2) > 0.05 {
		t.Errorf("long-running fraction = %v, want ~0.2", frac)
	}
	// Median of finite lifetimes near the configured median; heavy tail.
	if len(finite) == 0 {
		t.Fatal("no finite lifetimes")
	}
	var sum float64
	max := 0.0
	for _, h := range finite {
		sum += h
		if h > max {
			max = h
		}
	}
	if max < 10 {
		t.Errorf("max lifetime %vh: expected a heavy tail", max)
	}
}

func TestDiurnalRate(t *testing.T) {
	noon := diurnalRate(time.Date(2020, 5, 1, 14, 0, 0, 0, time.UTC))
	night := diurnalRate(time.Date(2020, 5, 1, 3, 0, 0, 0, time.UTC))
	if noon <= night {
		t.Errorf("daytime rate %v should exceed night rate %v", noon, night)
	}
	for h := 0; h < 24; h++ {
		r := diurnalRate(time.Date(2020, 5, 1, h, 0, 0, 0, time.UTC))
		if r <= 0 {
			t.Fatalf("rate at hour %d = %v, must be positive", h, r)
		}
	}
}

func TestSizeMixNormalized(t *testing.T) {
	var sum float64
	for _, s := range sizeMix {
		if s.cores <= 0 || s.memGB <= 0 || s.weight <= 0 {
			t.Fatalf("bad shape %+v", s)
		}
		sum += s.weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("size mix weights sum to %v, want 1", sum)
	}
}

func TestClassString(t *testing.T) {
	if Stable.String() != "stable" || Degradable.String() != "degradable" {
		t.Error("class strings")
	}
}

// TestGenerateExtremeRate pins the inter-arrival clamp fix: at extreme rates
// the expected gap drops below a second, and the old clamp (forcing every
// non-positive or tiny gap to 1s) would cap the process at ~3600 arrivals per
// hour. The count must track rate*hours even when gaps are sub-second, and
// arrivals and IDs must strictly increase: the trace is born in order.
func TestGenerateExtremeRate(t *testing.T) {
	cfg := extremeConfig()
	vms, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The diurnal envelope runs ~0.8x overnight (the window starts at
	// midnight), so expect rate*hours*[0.7,0.95]. The old 1s clamp capped
	// the count near 3600 regardless.
	expected := cfg.MeanArrivalsPerHour * cfg.Duration.Hours()
	if float64(len(vms)) < 0.7*expected || float64(len(vms)) > 0.95*expected {
		t.Errorf("got %d VMs at extreme rate, want ~%.0f x diurnal (1s clamp would cap near 3600)", len(vms), expected)
	}
	for i := 1; i < len(vms); i++ {
		if !vms[i].Arrival.After(vms[i-1].Arrival) || vms[i].ID <= vms[i-1].ID {
			t.Fatalf("VM %d (ID %d, %v) does not follow VM %d (ID %d, %v)", i, vms[i].ID, vms[i].Arrival,
				i-1, vms[i-1].ID, vms[i-1].Arrival)
		}
	}
}

func extremeConfig() Config {
	return Config{
		Seed:                13,
		Start:               start,
		Duration:            time.Hour,
		MeanArrivalsPerHour: 50000,
		StableFraction:      0.5,
	}
}

// fig4Config is the VM trace behind Fig 4 (seed 42): 29 days at 60 VMs an
// hour, starting a day before the power series.
func fig4Config() Config {
	return Config{
		Seed:                42,
		Start:               time.Date(2019, 12, 31, 0, 0, 0, 0, time.UTC),
		Duration:            29 * 24 * time.Hour,
		MeanArrivalsPerHour: 60,
		StableFraction:      0.7,
		LongRunningFraction: 0.3,
		MedianLifetime:      6 * time.Hour,
	}
}

// digest hashes every field of every VM, the arrival's location included.
func digest(vms []VM) string {
	h := sha256.New()
	var b []byte
	for _, v := range vms {
		b = b[:0]
		for _, x := range []int64{int64(v.ID), int64(v.Cores), int64(v.MemoryGB), int64(v.Class),
			v.Arrival.UnixNano(), int64(v.Lifetime), int64(v.AppID)} {
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		}
		b = append(b, v.Arrival.Location().String()...)
		h.Write(b)
	}
	return fmt.Sprintf("%d %x", len(vms), h.Sum(nil))
}

// TestGenerateDigest pins Generate's output VM for VM: sizing the trace up
// front and dropping the sort it never needed changed no VM. The digests
// were taken from the generator that sorted its output.
func TestGenerateDigest(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"fig4", fig4Config(), "41442 c5cb4d8982ecf46c25c7c4d37cf59d2e8b1b80156acedbad14f73474b4c38113"},
		{"extreme rate", extremeConfig(), "39719 193065818d560e26bec305b81de51a9d6e8a61e21f615d782aba704a4c1e009d"},
	}
	for _, c := range cases {
		vms, err := Generate(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(vms); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestGenerateSizesOnce checks that the Fig 4 trace fits the capacity
// Generate sizes from its config, so it is allocated once, and that the
// capacity stays bounded for an extreme config.
func TestGenerateSizesOnce(t *testing.T) {
	cfg := fig4Config()
	vms, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := traceCap(cfg); cap(vms) != want {
		t.Errorf("Fig 4 trace of %d VMs has capacity %d, want the %d sized up front", len(vms), cap(vms), want)
	}
	huge := cfg
	huge.MeanArrivalsPerHour = 1e300
	if got := traceCap(huge); got != maxTraceCap {
		t.Errorf("traceCap at 1e300 per hour = %d, want the cap %d", got, maxTraceCap)
	}
}

func TestGenerateApps(t *testing.T) {
	cfg := AppConfig{
		Seed:           3,
		Start:          start,
		Duration:       7 * 24 * time.Hour,
		MeanAppsPerDay: 40,
		MeanVMsPerApp:  8,
		StableFraction: 0.7,
	}
	apps, err := GenerateApps(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) < 150 || len(apps) > 450 {
		t.Errorf("got %d apps, want ~280", len(apps))
	}
	totVMs := 0
	for i, a := range apps {
		if len(a.VMs) == 0 {
			t.Fatalf("app %d has no VMs", a.ID)
		}
		if i > 0 && apps[i].Arrival.Before(apps[i-1].Arrival) {
			t.Fatal("apps not sorted")
		}
		for _, v := range a.VMs {
			if v.AppID != a.ID {
				t.Fatalf("VM %d has AppID %d, want %d", v.ID, v.AppID, a.ID)
			}
			if !v.Arrival.Equal(a.Arrival) {
				t.Fatal("VM arrival should match app arrival")
			}
		}
		if a.TotalCores() <= 0 || a.TotalMemoryGB() <= 0 {
			t.Fatal("app totals must be positive")
		}
		if a.StableCores() > a.TotalCores() {
			t.Fatal("stable cores exceed total")
		}
		totVMs += len(a.VMs)
	}
	meanVMs := float64(totVMs) / float64(len(apps))
	if meanVMs < 5 || meanVMs > 12 {
		t.Errorf("mean VMs per app = %v, want ~8", meanVMs)
	}
}

func TestGenerateAppsInvalid(t *testing.T) {
	bad := []AppConfig{
		{},
		{Duration: time.Hour, MeanAppsPerDay: 0, MeanVMsPerApp: 2},
		{Duration: time.Hour, MeanAppsPerDay: 5, MeanVMsPerApp: 0.5},
		{Duration: time.Hour, MeanAppsPerDay: 5, MeanVMsPerApp: 2, StableFraction: -1},
	}
	for i, c := range bad {
		if _, err := GenerateApps(c); err == nil {
			t.Errorf("bad app config %d accepted", i)
		}
	}
	for _, x := range nonFinite {
		apps, err := GenerateApps(AppConfig{Seed: 1, Start: start, Duration: time.Microsecond, MeanAppsPerDay: x, MeanVMsPerApp: 1})
		if err == nil {
			t.Errorf("GenerateApps at rate %v: %d apps, want an error", x, len(apps))
		}
	}
	// Validate alone for the size: an infinite mean never ends its draw.
	fields := map[string]func(*AppConfig, float64){
		"MeanAppsPerDay": func(c *AppConfig, x float64) { c.MeanAppsPerDay = x },
		"MeanVMsPerApp":  func(c *AppConfig, x float64) { c.MeanVMsPerApp = x },
		"StableFraction": func(c *AppConfig, x float64) { c.StableFraction = x },
	}
	for name, set := range fields {
		for _, x := range nonFinite {
			c := AppConfig{Duration: time.Hour, MeanAppsPerDay: 5, MeanVMsPerApp: 2, StableFraction: 0.5}
			set(&c, x)
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s = %v: error %v, want one naming the field", name, x, err)
			}
		}
	}
}

// Property: all generated VMs respect the arrival window and have positive
// resources for any sane config.
func TestPropGenerateWellFormed(t *testing.T) {
	f := func(seed uint64, rate8, stable8 uint8) bool {
		cfg := Config{
			Seed:                seed,
			Start:               start,
			Duration:            24 * time.Hour,
			MeanArrivalsPerHour: 1 + float64(rate8%40),
			StableFraction:      float64(stable8%101) / 100,
		}
		vms, err := Generate(cfg)
		if err != nil {
			return false
		}
		end := cfg.Start.Add(cfg.Duration)
		for _, v := range vms {
			if v.Cores <= 0 || v.MemoryGB <= 0 {
				return false
			}
			if v.Arrival.Before(cfg.Start) || !v.Arrival.Before(end) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
