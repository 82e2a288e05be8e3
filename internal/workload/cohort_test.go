package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func testSpec() TraceSpec {
	return TraceSpec{
		Version:          TraceSpecVersion,
		Seed:             7,
		Start:            start,
		DurationHours:    48,
		AppsPerDay:       24,
		DiurnalAmplitude: 0.35,
		Cohorts: []CohortSpec{
			{Name: "api", Class: "realtime", RateShare: 0.2, MeanVMsPerApp: 4, SizeMix: "small", MedianLifetimeHours: 24},
			{Name: "web", Class: "interactive", RateShare: 0.3, Process: ProcessGamma, Shape: 0.5, MeanVMsPerApp: 8, MedianLifetimeHours: 12},
			{Name: "analytics", Class: "batch", RateShare: 0.3, Process: ProcessWeibull, Shape: 0.6, MeanVMsPerApp: 12, SizeMix: "large", MedianLifetimeHours: 6},
			{Name: "spot", Class: "degradable", RateShare: 0.2, MeanVMsPerApp: 6},
		},
	}
}

func TestTraceSpecValidate(t *testing.T) {
	good := testSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	mutations := []func(*TraceSpec){
		func(s *TraceSpec) { s.Version = 99 },
		func(s *TraceSpec) { s.DurationHours = 0 },
		func(s *TraceSpec) { s.AppsPerDay = -1 },
		func(s *TraceSpec) { s.DiurnalAmplitude = 1 },
		func(s *TraceSpec) { s.Cohorts = nil },
		func(s *TraceSpec) { s.Cohorts[0].Name = "" },
		func(s *TraceSpec) { s.Cohorts[1].Name = s.Cohorts[0].Name },
		func(s *TraceSpec) { s.Cohorts[0].Class = "spot" },
		func(s *TraceSpec) { s.Cohorts[0].RateShare = 0 },
		func(s *TraceSpec) { s.Cohorts[0].Process = "pareto" },
		func(s *TraceSpec) { s.Cohorts[0].Shape = -1 },
		func(s *TraceSpec) { s.Cohorts[0].MeanVMsPerApp = 0.5 },
		func(s *TraceSpec) { s.Cohorts[0].SizeMix = "huge" },
		func(s *TraceSpec) { s.Cohorts[0].MedianLifetimeHours = -2 },
		func(s *TraceSpec) { s.Cohorts[0].LongRunningFraction = 1.5 },
		// Spans longer than a time.Duration holds (about 2.56e6 h); the
		// rate keeps the expected workload small.
		func(s *TraceSpec) { s.DurationHours, s.AppsPerDay = 1e7, 1e-3 },
		func(s *TraceSpec) { s.Cohorts[0].MedianLifetimeHours = 1e7 },
	}
	for i, mutate := range mutations {
		s := testSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d should be rejected", i)
		}
	}
}

func TestGenerateCohortsDeterministic(t *testing.T) {
	spec := testSpec()
	a, err := GenerateCohorts(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCohorts(spec)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Error("same spec generated different traces")
	}
	other := spec
	other.Seed++
	c, err := GenerateCohorts(other)
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c)
	if bytes.Equal(ja, jc) {
		t.Error("different seeds generated identical traces")
	}
}

func TestGenerateCohortsShape(t *testing.T) {
	spec := testSpec()
	apps, err := GenerateCohorts(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Roughly AppsPerDay * days arrivals in total.
	want := spec.AppsPerDay * spec.DurationHours / 24
	if float64(len(apps)) < want*0.5 || float64(len(apps)) > want*1.6 {
		t.Errorf("generated %d apps, want about %.0f", len(apps), want)
	}
	end := spec.Start.Add(time.Duration(spec.DurationHours * float64(time.Hour)))
	seenClass := map[Class]bool{}
	prev := time.Time{}
	prevID := 0
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		if a.ID != prevID+1 {
			t.Fatalf("app IDs not sequential: %d after %d", a.ID, prevID)
		}
		prevID = a.ID
		if a.Arrival.Before(prev) {
			t.Fatal("apps not sorted by arrival")
		}
		prev = a.Arrival
		if a.Arrival.Before(spec.Start) || !a.Arrival.Before(end) {
			t.Fatalf("arrival %v outside window", a.Arrival)
		}
		cls := a.VMs[0].Class
		seenClass[cls] = true
		for _, vm := range a.VMs {
			if vm.Class != cls {
				t.Fatal("cohort app mixes classes")
			}
			if vm.AppID != a.ID || !vm.Arrival.Equal(a.Arrival) || vm.Lifetime != a.Duration {
				t.Fatalf("VM %d inconsistent with app %d", vm.ID, a.ID)
			}
		}
	}
	for _, c := range []Class{RealTime, Interactive, Batch, Degradable} {
		if !seenClass[c] {
			t.Errorf("no %v apps generated", c)
		}
	}
}

// TestGenerateCohortsBurstiness checks the non-Poisson processes actually
// change inter-arrival dispersion: gamma/weibull with shape < 1 must have a
// higher squared coefficient of variation than the Poisson stream.
func TestGenerateCohortsBurstiness(t *testing.T) {
	cv2 := func(process string, shape float64) float64 {
		spec := TraceSpec{
			Version: TraceSpecVersion, Seed: 11, Start: start,
			DurationHours: 24 * 60, AppsPerDay: 48,
			Cohorts: []CohortSpec{{Name: "x", Class: "batch", RateShare: 1, Process: process, Shape: shape}},
		}
		apps, err := GenerateCohorts(spec)
		if err != nil {
			t.Fatal(err)
		}
		var gaps []float64
		for i := 1; i < len(apps); i++ {
			gaps = append(gaps, apps[i].Arrival.Sub(apps[i-1].Arrival).Seconds())
		}
		var mean float64
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		var v float64
		for _, g := range gaps {
			v += (g - mean) * (g - mean)
		}
		v /= float64(len(gaps))
		return v / (mean * mean)
	}
	poisson := cv2(ProcessPoisson, 0)
	gamma := cv2(ProcessGamma, 0.4)
	weibull := cv2(ProcessWeibull, 0.6)
	if math.Abs(poisson-1) > 0.3 {
		t.Errorf("poisson squared CV %.2f, want about 1", poisson)
	}
	if gamma < poisson*1.5 {
		t.Errorf("gamma(0.4) squared CV %.2f not burstier than poisson %.2f", gamma, poisson)
	}
	if weibull < poisson*1.2 {
		t.Errorf("weibull(0.6) squared CV %.2f not burstier than poisson %.2f", weibull, poisson)
	}
}

func TestParseTraceSpec(t *testing.T) {
	spec := testSpec()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTraceSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Hash() != spec.Hash() {
		t.Error("parse changed the spec hash")
	}
	if _, err := ParseTraceSpec([]byte(`{"version":1,"unknown_field":3}`)); err == nil {
		t.Error("unknown fields should be rejected")
	}
	if _, err := ParseTraceSpec([]byte(`not json`)); err == nil {
		t.Error("garbage should be rejected")
	}
	if _, err := ParseTraceSpec([]byte(strings.Replace(string(b), `"version":1`, `"version":9`, 1))); err == nil {
		t.Error("wrong version should be rejected")
	}
}

func TestTraceSpecHashSensitivity(t *testing.T) {
	a := testSpec()
	b := testSpec()
	if a.Hash() != b.Hash() {
		t.Error("identical specs hash differently")
	}
	b.Cohorts[0].RateShare += 0.01
	if a.Hash() == b.Hash() {
		t.Error("different specs hash identically")
	}
}

// TestLongMedianLifetimeSaturates requires a lifetime drawn near the
// longest time.Duration to saturate there instead of wrapping negative and
// landing on the one-minute floor: at a 1e6-hour median every app must
// outlive a day.
func TestLongMedianLifetimeSaturates(t *testing.T) {
	spec := testSpec()
	spec.DurationHours = 60 * 24
	for i := range spec.Cohorts {
		spec.Cohorts[i].MedianLifetimeHours = 1e6
	}
	apps, err := GenerateCohorts(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) == 0 {
		t.Fatal("no apps generated")
	}
	short := 0
	for _, a := range apps {
		if a.Duration <= 24*time.Hour {
			short++
		}
	}
	if short > 0 {
		t.Errorf("%d of %d apps live a day or less at a 1e6-hour median lifetime", short, len(apps))
	}
}
