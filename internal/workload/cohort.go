// Cohort-based workload generation: a trace is a mix of heterogeneous
// cohorts, each with its own SLO class, arrival renewal process (Poisson,
// Gamma or Weibull, diurnally modulated), application size, VM size mix and
// lifetime distribution. Specs are versioned JSON documents so scenarios
// form a reproducible library; TraceSpec.Hash fingerprints a spec into the
// trace v2 header (tracev2.go).
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"time"
)

// TraceSpecVersion is the spec format this package reads and writes.
const TraceSpecVersion = 1

// Renewal process names accepted by CohortSpec.Process.
const (
	ProcessPoisson = "poisson"
	ProcessGamma   = "gamma"
	ProcessWeibull = "weibull"
)

// CohortSpec describes one workload cohort: a stream of applications
// sharing an SLO class, arrival process, size profile and lifetime
// distribution.
type CohortSpec struct {
	// Name identifies the cohort (it also salts the cohort's RNG stream).
	Name string `json:"name"`
	// Class is the SLO class name of every VM the cohort emits ("realtime",
	// "interactive", "batch", "degradable", or the legacy "stable").
	Class string `json:"class"`
	// RateShare is the cohort's share of the spec's total application
	// arrival rate. Shares are normalized over the spec, so they need not
	// sum to 1.
	RateShare float64 `json:"rate_share"`
	// Process selects the inter-arrival renewal process: "poisson"
	// (default), "gamma" or "weibull". Gamma and Weibull take Shape.
	Process string `json:"process,omitempty"`
	// Shape is the renewal distribution's shape parameter (gamma k or
	// weibull k), scaled to unit mean. Shape < 1 is burstier than Poisson
	// (heavy-tailed gaps arriving in clumps), shape > 1 is more regular.
	// Zero selects 1, which reduces both processes to exponential.
	Shape float64 `json:"shape,omitempty"`
	// MeanVMsPerApp is the mean application size (geometric, at least 1).
	// Zero selects 1.
	MeanVMsPerApp float64 `json:"mean_vms_per_app,omitempty"`
	// SizeMix names the VM size mix: "default" (the full Azure-like mix),
	// "small" (the sub-4-core slice) or "large" (the 8-core-and-up tail).
	SizeMix string `json:"size_mix,omitempty"`
	// MedianLifetimeHours is the median app lifetime (lognormal, heavy
	// tailed). Zero means apps run to the end of the simulation.
	MedianLifetimeHours float64 `json:"median_lifetime_hours,omitempty"`
	// LongRunningFraction is the fraction of apps that never terminate
	// within the trace even when MedianLifetimeHours is set.
	LongRunningFraction float64 `json:"long_running_fraction,omitempty"`
}

// TraceSpec is a versioned cohort-mix description — the unit of the
// scenario library. The zero value is invalid; specs come from
// ParseTraceSpec/LoadTraceSpec or are built programmatically and validated.
type TraceSpec struct {
	// Version pins the spec format (TraceSpecVersion).
	Version int `json:"version"`
	// Seed drives all randomness; each cohort derives an independent
	// deterministic stream from it.
	Seed uint64 `json:"seed"`
	// Start and DurationHours span the arrival window.
	Start         time.Time `json:"start"`
	DurationHours float64   `json:"duration_hours"`
	// AppsPerDay is the total mean application arrival rate across all
	// cohorts; each cohort receives its normalized RateShare of it.
	AppsPerDay float64 `json:"apps_per_day"`
	// DiurnalAmplitude modulates every cohort's rate over the day
	// (0 = flat, 0.35 = the legacy generator's business-hours swing).
	// Values outside [0,1) are an error.
	DiurnalAmplitude float64 `json:"diurnal_amplitude,omitempty"`
	// Cohorts is the mix (at least one).
	Cohorts []CohortSpec `json:"cohorts"`
}

// Validate reports spec errors.
func (s TraceSpec) Validate() error {
	if s.Version != TraceSpecVersion {
		return fmt.Errorf("workload: trace spec version %d, this build reads %d", s.Version, TraceSpecVersion)
	}
	if s.DurationHours <= 0 {
		return fmt.Errorf("workload: non-positive spec duration %v h", s.DurationHours)
	}
	if s.AppsPerDay <= 0 {
		return fmt.Errorf("workload: non-positive apps per day %v", s.AppsPerDay)
	}
	if s.DiurnalAmplitude < 0 || s.DiurnalAmplitude >= 1 {
		return fmt.Errorf("workload: diurnal amplitude %v outside [0,1)", s.DiurnalAmplitude)
	}
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("workload: spec has no cohorts")
	}
	var share float64
	names := make(map[string]bool, len(s.Cohorts))
	for i, c := range s.Cohorts {
		if c.Name == "" {
			return fmt.Errorf("workload: cohort %d has no name", i)
		}
		if names[c.Name] {
			return fmt.Errorf("workload: duplicate cohort name %q", c.Name)
		}
		names[c.Name] = true
		if _, err := ParseClass(c.Class); err != nil {
			return fmt.Errorf("workload: cohort %q: %w", c.Name, err)
		}
		if c.RateShare <= 0 {
			return fmt.Errorf("workload: cohort %q has non-positive rate share %v", c.Name, c.RateShare)
		}
		share += c.RateShare
		switch c.Process {
		case "", ProcessPoisson, ProcessGamma, ProcessWeibull:
		default:
			return fmt.Errorf("workload: cohort %q: unknown process %q", c.Name, c.Process)
		}
		if c.Shape < 0 {
			return fmt.Errorf("workload: cohort %q has negative shape %v", c.Name, c.Shape)
		}
		if c.MeanVMsPerApp < 0 || (c.MeanVMsPerApp > 0 && c.MeanVMsPerApp < 1) {
			return fmt.Errorf("workload: cohort %q mean VMs per app %v must be >= 1 (or 0 for the default)", c.Name, c.MeanVMsPerApp)
		}
		switch c.SizeMix {
		case "", "default", "small", "large":
		default:
			return fmt.Errorf("workload: cohort %q: unknown size mix %q", c.Name, c.SizeMix)
		}
		if c.MedianLifetimeHours < 0 {
			return fmt.Errorf("workload: cohort %q has negative median lifetime", c.Name)
		}
		if c.LongRunningFraction < 0 || c.LongRunningFraction > 1 {
			return fmt.Errorf("workload: cohort %q long-running fraction %v outside [0,1]", c.Name, c.LongRunningFraction)
		}
	}
	if share <= 0 {
		return fmt.Errorf("workload: cohort rate shares sum to %v", share)
	}
	return nil
}

// Hash fingerprints the spec (FNV-64a over its canonical JSON encoding).
// The trace v2 header carries it so a replayed trace can be tied back to
// the exact spec that generated it.
func (s TraceSpec) Hash() uint64 {
	b, err := json.Marshal(s)
	if err != nil {
		// A TraceSpec contains only marshalable fields; this is unreachable
		// short of memory corruption.
		panic(fmt.Sprintf("workload: marshaling trace spec: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// ParseTraceSpec decodes and validates a JSON spec document. Unknown fields
// are rejected so typos in hand-written specs fail loudly.
func ParseTraceSpec(b []byte) (*TraceSpec, error) {
	var s TraceSpec
	if err := strictUnmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("workload: parsing trace spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadTraceSpec reads a JSON spec file from disk.
func LoadTraceSpec(path string) (*TraceSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace spec: %w", err)
	}
	return ParseTraceSpec(b)
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing data.
func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}

// smallMix and largeMix are the named slices of the Azure-like size mix,
// reweighted to sum to 1.
var smallMix = normalizeMix(sizeMix[:6]) // 1-4 cores
var largeMix = normalizeMix(sizeMix[6:]) // 8+ cores

func normalizeMix(in []shape) []shape {
	var sum float64
	for _, s := range in {
		sum += s.weight
	}
	out := make([]shape, len(in))
	for i, s := range in {
		out[i] = shape{cores: s.cores, memGB: s.memGB, weight: s.weight / sum}
	}
	return out
}

func (c CohortSpec) mix() []shape {
	switch c.SizeMix {
	case "small":
		return smallMix
	case "large":
		return largeMix
	default:
		return sizeMix
	}
}

func (c CohortSpec) meanVMs() float64 {
	if c.MeanVMsPerApp <= 0 {
		return 1
	}
	return c.MeanVMsPerApp
}

func (c CohortSpec) shapeParam() float64 {
	if c.Shape <= 0 {
		return 1
	}
	return c.Shape
}

// drawGap samples one unit-mean renewal inter-arrival from the cohort's
// process.
func (c CohortSpec) drawGap(rng *rand.Rand) float64 {
	k := c.shapeParam()
	switch c.Process {
	case ProcessGamma:
		// Gamma(k, 1/k): mean 1, squared CV 1/k.
		return gammaSample(k, rng) / k
	case ProcessWeibull:
		// Weibull(k) scaled by 1/Γ(1+1/k) for unit mean; k < 1 gives a
		// heavy tail (bursts separated by long quiet stretches).
		u := rng.Float64()
		return math.Pow(-math.Log1p(-u), 1/k) / math.Gamma(1+1/k)
	default:
		return rng.ExpFloat64()
	}
}

// gammaSample draws Gamma(k, 1) via Marsaglia-Tsang, boosting k < 1 with
// the standard U^(1/k) multiplier.
func gammaSample(k float64, rng *rand.Rand) float64 {
	if k < 1 {
		return gammaSample(k+1, rng) * math.Pow(rng.Float64(), 1/k)
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// diurnal modulates a rate with the given amplitude around the legacy
// generator's business-hours phase.
func diurnal(t time.Time, amplitude float64) float64 {
	if amplitude == 0 {
		return 1
	}
	h := float64(t.UTC().Hour()) + float64(t.UTC().Minute())/60
	return 1 + amplitude*math.Sin(2*math.Pi*(h-10)/24)
}

// GenerateCohorts produces the spec's application trace: every cohort's
// renewal stream is drawn independently from its own seeded RNG, the
// streams are merged in arrival order (cohort index breaking ties), and
// app/VM IDs are assigned sequentially over the merged order. The same spec
// always yields the same trace, VM for VM.
func GenerateCohorts(spec TraceSpec) ([]App, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var shareSum float64
	for _, c := range spec.Cohorts {
		shareSum += c.RateShare
	}
	end := spec.Start.Add(time.Duration(spec.DurationHours * float64(time.Hour)))

	type cohortApp struct {
		arrival time.Time
		cohort  int
		seq     int
	}
	var merged []cohortApp
	for ci, c := range spec.Cohorts {
		rate := spec.AppsPerDay * c.RateShare / shareSum / 24 // apps per hour
		rng := subRNG(spec.Seed, "cohort/"+c.Name)
		t := spec.Start
		for seq := 0; ; seq++ {
			r := rate * diurnal(t, spec.DiurnalAmplitude)
			gap := time.Duration(c.drawGap(rng) / r * float64(time.Hour))
			if gap <= 0 {
				gap = time.Nanosecond
			}
			t = t.Add(gap)
			if !t.Before(end) {
				break
			}
			merged = append(merged, cohortApp{arrival: t, cohort: ci, seq: seq})
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if !merged[i].arrival.Equal(merged[j].arrival) {
			return merged[i].arrival.Before(merged[j].arrival)
		}
		if merged[i].cohort != merged[j].cohort {
			return merged[i].cohort < merged[j].cohort
		}
		return merged[i].seq < merged[j].seq
	})

	// Body draws (size, lifetime, VM count) come from a second per-cohort
	// stream, consumed in merged arrival order so the trace is independent
	// of how the arrival streams interleaved above.
	body := make([]*rand.Rand, len(spec.Cohorts))
	for ci, c := range spec.Cohorts {
		body[ci] = subRNG(spec.Seed, "cohort-body/"+c.Name)
	}
	apps := make([]App, 0, len(merged))
	appID, vmID := 1, 1
	for _, m := range merged {
		c := spec.Cohorts[m.cohort]
		rng := body[m.cohort]
		class, _ := ParseClass(c.Class)
		nVMs := 1
		p := 1 / c.meanVMs()
		for rng.Float64() > p {
			nVMs++
		}
		var life time.Duration
		if c.MedianLifetimeHours > 0 && rng.Float64() >= c.LongRunningFraction {
			life = drawLifetime(time.Duration(c.MedianLifetimeHours*float64(time.Hour)), rng)
		}
		app := App{ID: appID, Arrival: m.arrival, Duration: life}
		mix := c.mix()
		for i := 0; i < nVMs; i++ {
			sh := drawShapeFrom(mix, rng)
			app.VMs = append(app.VMs, VM{
				ID:       vmID,
				Cores:    sh.cores,
				MemoryGB: sh.memGB,
				Class:    class,
				Arrival:  m.arrival,
				Lifetime: life,
				AppID:    appID,
			})
			vmID++
		}
		apps = append(apps, app)
		appID++
	}
	return apps, nil
}

// drawShapeFrom samples a VM size from the given mix.
func drawShapeFrom(mix []shape, rng *rand.Rand) shape {
	u := rng.Float64()
	var cum float64
	for _, s := range mix {
		cum += s.weight
		if u < cum {
			return s
		}
	}
	return mix[len(mix)-1]
}
