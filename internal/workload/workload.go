// Package workload generates synthetic cloud workloads standing in for the
// Azure production VM arrival trace the paper uses (§3): renewal arrivals
// with a diurnal rate profile, an Azure-like VM size mix, heavy-tailed
// lifetimes, and an SLO class per VM (classes.go) refining §2.3's
// stable/degradable split. Beyond the legacy single-stream generator,
// cohort.go mixes heterogeneous cohorts (per-cohort renewal process, size
// mix, lifetime distribution and class) from a versioned spec, and
// tracev2.go records/replays the resulting app traces as JSONL.
package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"
)

// VM is one virtual machine request.
type VM struct {
	// ID is unique within a generated trace.
	ID int
	// Cores and MemoryGB are the requested resources.
	Cores    int
	MemoryGB int
	// Class is the availability class.
	Class Class
	// Arrival is when the VM is requested.
	Arrival time.Time
	// Lifetime is how long the VM runs once started. Zero means it runs
	// until the end of the simulation.
	Lifetime time.Duration
	// AppID groups VMs belonging to one application request (0 = none).
	AppID int
}

// End returns the VM's departure time, or the zero time when it runs
// forever.
func (v VM) End() time.Time {
	if v.Lifetime == 0 {
		return time.Time{}
	}
	return v.Arrival.Add(v.Lifetime)
}

// Validate reports a VM a site would misaccount: a non-positive size, a
// negative lifetime or an unknown class. The error names the fault, not the
// VM; callers say which VM it is.
func (v VM) Validate() error {
	if v.Cores <= 0 || v.MemoryGB <= 0 {
		return fmt.Errorf("non-positive size %d cores, %d GB", v.Cores, v.MemoryGB)
	}
	if v.Lifetime < 0 {
		return fmt.Errorf("negative lifetime %v", v.Lifetime)
	}
	if !v.Class.Valid() {
		return fmt.Errorf("unknown class %v", v.Class)
	}
	return nil
}

// shape is one entry of the VM size mix.
type shape struct {
	cores  int
	memGB  int
	weight float64
}

// sizeMix approximates the Azure first-party size distribution: dominated by
// small sizes with a thin tail of very large VMs. Memory per core is 2-4 GB,
// matching the paper's 40-core/512 GB servers (12.8 GB/core) being
// memory-rich relative to demand.
var sizeMix = []shape{
	{1, 2, 0.22},
	{1, 4, 0.13},
	{2, 4, 0.18},
	{2, 8, 0.13},
	{4, 8, 0.12},
	{4, 16, 0.08},
	{8, 16, 0.06},
	{8, 32, 0.04},
	{16, 64, 0.02},
	{24, 96, 0.013},
	{32, 128, 0.007},
}

// Config parameterizes a workload trace.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Start is the beginning of the trace.
	Start time.Time
	// Duration is the span over which VMs arrive.
	Duration time.Duration
	// MeanArrivalsPerHour is the average VM arrival rate (diurnally
	// modulated around this mean).
	MeanArrivalsPerHour float64
	// StableFraction is the fraction of VMs in the Stable class. The
	// remainder is Degradable. Values outside [0,1] are an error.
	StableFraction float64
	// MedianLifetime is the median VM lifetime; the distribution is
	// lognormal and heavy tailed. Zero selects 2 hours.
	MedianLifetime time.Duration
	// LongRunningFraction is the fraction of VMs that never terminate
	// within the trace (services). Zero is allowed.
	LongRunningFraction float64
}

// Validate reports configuration errors, naming the field. It refuses NaN
// and infinite values: a NaN or infinite rate would make every gap 1 ns.
func (c Config) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("workload: non-positive duration %v", c.Duration)
	}
	if !positiveFinite(c.MeanArrivalsPerHour) {
		return fmt.Errorf("workload: MeanArrivalsPerHour %v is not positive and finite", c.MeanArrivalsPerHour)
	}
	if !unitFraction(c.StableFraction) {
		return fmt.Errorf("workload: StableFraction %v outside [0,1]", c.StableFraction)
	}
	if !unitFraction(c.LongRunningFraction) {
		return fmt.Errorf("workload: LongRunningFraction %v outside [0,1]", c.LongRunningFraction)
	}
	return nil
}

// positiveFinite reports whether x is positive and finite; NaN is not.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// unitFraction reports whether x lies in [0,1]; NaN does not.
func unitFraction(x float64) bool { return x >= 0 && x <= 1 }

func (c Config) medianLifetime() time.Duration {
	if c.MedianLifetime <= 0 {
		return 2 * time.Hour
	}
	return c.MedianLifetime
}

// Generate produces the VM arrival trace in arrival order. Every gap is at
// least 1 ns, so arrivals strictly increase and IDs rise with them: the
// trace is born sorted by (arrival, ID). It is allocated once, sized by
// traceCap.
func Generate(cfg Config) ([]VM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := subRNG(cfg.Seed, "vms")
	vms := make([]VM, 0, traceCap(cfg))
	t := cfg.Start
	end := cfg.Start.Add(cfg.Duration)
	for id := 1; ; id++ {
		rate := cfg.MeanArrivalsPerHour * diurnalRate(t)
		var ok bool
		if t, ok = nextArrival(t, end, rng.ExpFloat64()/rate*float64(time.Hour)); !ok {
			break
		}
		vms = append(vms, newVM(id, t, cfg, rng))
	}
	return vms, nil
}

// maxTraceCap bounds the capacity Generate allocates before drawing.
const maxTraceCap = 1 << 20

// traceCap sizes Generate's trace: the expected count over the window (the
// diurnal factor averages 1 over whole days), plus six standard deviations
// of a Poisson count and a constant for short windows, so a whole-day
// window does not regrow. It is capped at maxTraceCap so that no config
// allocates a huge slice up front; append still grows past the cap or an
// unlucky draw.
func traceCap(cfg Config) int {
	n := cfg.MeanArrivalsPerHour * cfg.Duration.Hours()
	return int(min(n+6*math.Sqrt(n)+64, maxTraceCap))
}

// nextArrival advances t by a drawn gap of ns nanoseconds and reports
// whether the arrival falls before end. The gap is at least 1 ns: the clamp
// only guards the (measure-zero) sub-nanosecond draw, and clamping any
// further (say, to a second) visibly biases the arrival count at high
// rates. A gap of 2^63 ns or more (a tiny rate), or NaN, passes every end;
// it is checked before the conversion to a Duration, which would overflow.
func nextArrival(t, end time.Time, ns float64) (time.Time, bool) {
	if !(ns < 1<<63) {
		return t, false
	}
	gap := time.Duration(ns)
	if gap <= 0 {
		gap = time.Nanosecond
	}
	t = t.Add(gap)
	return t, t.Before(end)
}

// newVM draws one VM with the configured class and size mix.
func newVM(id int, arrival time.Time, cfg Config, rng *rand.Rand) VM {
	sh := drawShape(rng)
	class := Degradable
	if rng.Float64() < cfg.StableFraction {
		class = Stable
	}
	var life time.Duration
	if rng.Float64() >= cfg.LongRunningFraction {
		life = drawLifetime(cfg.medianLifetime(), rng)
	}
	return VM{
		ID:       id,
		Cores:    sh.cores,
		MemoryGB: sh.memGB,
		Class:    class,
		Arrival:  arrival,
		Lifetime: life,
	}
}

// diurnalRate modulates the arrival rate over the day: business hours see
// roughly twice the overnight load.
func diurnalRate(t time.Time) float64 {
	h := float64(t.UTC().Hour()) + float64(t.UTC().Minute())/60
	return 1 + 0.35*math.Sin(2*math.Pi*(h-10)/24)
}

// drawShape samples the default VM size mix.
func drawShape(rng *rand.Rand) shape { return drawShapeFrom(sizeMix, rng) }

// drawLifetime samples a lognormal lifetime with the given median and a
// heavy tail (sigma 1.4: p99 is ~26x the median).
func drawLifetime(median time.Duration, rng *rand.Rand) time.Duration {
	const sigma = 1.4
	f := math.Exp(sigma * rng.NormFloat64())
	d := time.Duration(float64(median) * f)
	if d < time.Minute {
		d = time.Minute
	}
	return d
}

// App is a multi-VM application request, the scheduling unit of §3.1: the
// scheduler picks a group of VB sites for all of an app's VMs together.
type App struct {
	// ID is unique within a generated set.
	ID int
	// Arrival is when the application is submitted.
	Arrival time.Time
	// Duration is how long the application runs. Zero means the full
	// simulation.
	Duration time.Duration
	// VMs are the application's VM requests (sharing the app's arrival).
	VMs []VM
}

// Validate reports application errors. A zero-core app is rejected: it has
// nothing to schedule, and downstream per-core divisions (e.g. memory per
// core) would produce NaN.
func (a App) Validate() error {
	if len(a.VMs) == 0 {
		return fmt.Errorf("workload: app %d has no VMs", a.ID)
	}
	if a.TotalCores() <= 0 {
		return fmt.Errorf("workload: app %d requests zero cores", a.ID)
	}
	for _, v := range a.VMs {
		if v.Cores <= 0 {
			return fmt.Errorf("workload: app %d VM %d has non-positive cores %d", a.ID, v.ID, v.Cores)
		}
	}
	return nil
}

// TotalCores returns the cores requested across all VMs.
func (a App) TotalCores() int {
	n := 0
	for _, v := range a.VMs {
		n += v.Cores
	}
	return n
}

// TotalMemoryGB returns the memory requested across all VMs.
func (a App) TotalMemoryGB() int {
	n := 0
	for _, v := range a.VMs {
		n += v.MemoryGB
	}
	return n
}

// StableCores returns the cores requested by Stable-class VMs (the legacy
// firm class only; see FirmCores for the full SLO-bearing total).
func (a App) StableCores() int {
	n := 0
	for _, v := range a.VMs {
		if v.Class == Stable {
			n += v.Cores
		}
	}
	return n
}

// FirmCores returns the cores requested by firm-class VMs (every class but
// Degradable) — the cores the co-scheduler must place and migrate. For
// legacy stable/degradable traces it equals StableCores.
func (a App) FirmCores() int {
	n := 0
	for _, v := range a.VMs {
		if v.Class.Firm() {
			n += v.Cores
		}
	}
	return n
}

// CoresByClass breaks the app's cores down by SLO class. Classes with no
// VMs are absent from the map.
func (a App) CoresByClass() map[Class]int {
	m := make(map[Class]int)
	for _, v := range a.VMs {
		m[v.Class] += v.Cores
	}
	return m
}

// AppConfig parameterizes application-level workload generation.
type AppConfig struct {
	// Seed drives all randomness.
	Seed uint64
	// Start and Duration span the arrival window.
	Start    time.Time
	Duration time.Duration
	// MeanAppsPerDay is the average application arrival rate.
	MeanAppsPerDay float64
	// MeanVMsPerApp is the mean application size (geometric, at least 1).
	MeanVMsPerApp float64
	// StableFraction is the per-VM probability of the Stable class.
	StableFraction float64
}

// Validate reports configuration errors, naming the field. It refuses NaN
// and infinite values: a NaN or infinite app rate would make every gap
// 1 ns, and an infinite mean app size would never end its size draw.
func (c AppConfig) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("workload: non-positive duration %v", c.Duration)
	}
	if !positiveFinite(c.MeanAppsPerDay) {
		return fmt.Errorf("workload: MeanAppsPerDay %v is not positive and finite", c.MeanAppsPerDay)
	}
	if !(c.MeanVMsPerApp >= 1) || math.IsInf(c.MeanVMsPerApp, 1) {
		return fmt.Errorf("workload: MeanVMsPerApp %v must be finite and >= 1", c.MeanVMsPerApp)
	}
	if !unitFraction(c.StableFraction) {
		return fmt.Errorf("workload: StableFraction %v outside [0,1]", c.StableFraction)
	}
	return nil
}

// GenerateApps produces application requests sorted by arrival.
func GenerateApps(cfg AppConfig) ([]App, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := subRNG(cfg.Seed, "apps")
	var apps []App
	t := cfg.Start
	end := cfg.Start.Add(cfg.Duration)
	appID := 1
	vmID := 1
	for {
		var ok bool
		if t, ok = nextArrival(t, end, rng.ExpFloat64()/cfg.MeanAppsPerDay*float64(24*time.Hour)); !ok {
			break
		}
		nVMs := 1
		// Geometric with mean MeanVMsPerApp.
		p := 1 / cfg.MeanVMsPerApp
		for rng.Float64() > p {
			nVMs++
		}
		app := App{ID: appID, Arrival: t}
		for i := 0; i < nVMs; i++ {
			sh := drawShape(rng)
			class := Degradable
			if rng.Float64() < cfg.StableFraction {
				class = Stable
			}
			app.VMs = append(app.VMs, VM{
				ID:       vmID,
				Cores:    sh.cores,
				MemoryGB: sh.memGB,
				Class:    class,
				Arrival:  t,
				AppID:    appID,
			})
			vmID++
		}
		apps = append(apps, app)
		appID++
	}
	return apps, nil
}

func subRNG(seed uint64, label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	s := h.Sum64()
	return rand.New(rand.NewPCG(s, s^0xbb67ae8584caa73b))
}
