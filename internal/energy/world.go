package energy

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"

	"github.com/vbcloud/vb/internal/obs"
	"github.com/vbcloud/vb/internal/par"
	"github.com/vbcloud/vb/internal/trace"
)

// World generates correlated power traces for a set of sites. Nearby sites
// share regional weather (through a latent anchor-grid factor model) while
// distant sites and different source types decorrelate — the structure the
// multi-VB analysis of §2.3 depends on.
//
// All output is deterministic given Seed and the site list.
type World struct {
	// Seed drives all randomness.
	Seed uint64
	// CorrelationKM is the e-folding distance of inter-site weather
	// correlation. Zero selects the default of 500 km.
	CorrelationKM float64
	// RegionalShare in [0, 1) is the fraction of a site's weather variance
	// explained by regional (shared) drivers; the rest is micro-climate.
	// Zero selects the default of 0.8.
	RegionalShare float64
	// Obs, when non-nil, receives trace-generation timings and sample
	// counters. A nil registry is a no-op.
	Obs *obs.Registry
}

// NewWorld returns a World with default correlation structure.
func NewWorld(seed uint64) *World {
	return &World{Seed: seed, CorrelationKM: 500, RegionalShare: 0.8}
}

func (w *World) correlationKM() float64 {
	if w.CorrelationKM <= 0 {
		return 500
	}
	return w.CorrelationKM
}

func (w *World) regionalShare() float64 {
	if w.RegionalShare <= 0 || w.RegionalShare >= 1 {
		return 0.8
	}
	return w.RegionalShare
}

// subRNG returns a deterministic RNG stream namespaced by a label.
func (w *World) subRNG(label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", w.Seed, label)
	s := h.Sum64()
	return rand.New(rand.NewPCG(s, s^0x9e3779b97f4a7c15))
}

// anchor is one latent weather factor location.
type anchor struct {
	lat, lon float64
}

// anchorGrid lays a grid of weather anchors over the bounding box of the
// sites, expanded by one cell so edge sites are interior.
func anchorGrid(cfgs []SiteConfig) []anchor {
	const gridN = 4
	minLat, maxLat := math.Inf(1), math.Inf(-1)
	minLon, maxLon := math.Inf(1), math.Inf(-1)
	for _, c := range cfgs {
		minLat = math.Min(minLat, c.Latitude)
		maxLat = math.Max(maxLat, c.Latitude)
		minLon = math.Min(minLon, c.Longitude)
		maxLon = math.Max(maxLon, c.Longitude)
	}
	// Pad so a single site still gets a spread of anchors.
	latPad := math.Max(2, (maxLat-minLat)/gridN)
	lonPad := math.Max(2, (maxLon-minLon)/gridN)
	minLat, maxLat = minLat-latPad, maxLat+latPad
	minLon, maxLon = minLon-lonPad, maxLon+lonPad
	anchors := make([]anchor, 0, gridN*gridN)
	for i := 0; i < gridN; i++ {
		for j := 0; j < gridN; j++ {
			anchors = append(anchors, anchor{
				lat: minLat + (maxLat-minLat)*float64(i)/(gridN-1),
				lon: minLon + (maxLon-minLon)*float64(j)/(gridN-1),
			})
		}
	}
	return anchors
}

// anchorWeights returns per-anchor loadings for a site such that the summed
// squared weight equals the regional share (so the site latent keeps unit
// variance after adding sqrt(1-share^2) of local noise). Correlation between
// two sites is share^2 times the cosine similarity of their loading vectors,
// which decays with distance at the CorrelationKM scale.
func (w *World) anchorWeights(cfg SiteConfig, anchors []anchor) []float64 {
	scale := w.correlationKM()
	raw := make([]float64, len(anchors))
	var norm float64
	for i, a := range anchors {
		d := DistanceKM(cfg, SiteConfig{Latitude: a.lat, Longitude: a.lon})
		raw[i] = corrWeight(d, scale)
		norm += raw[i] * raw[i]
	}
	norm = math.Sqrt(norm)
	share := w.regionalShare()
	for i := range raw {
		if norm > 0 {
			raw[i] = share * raw[i] / norm
		}
	}
	return raw
}

// anchorSeries holds the latent weather processes of one anchor.
type anchorSeries struct {
	cloudDaily []float64 // one per day, slow OU (weather systems)
	cloudFast  []float64 // one per step, intra-day cloud field
	windSyn    []float64 // one per step, synoptic wind driver
}

// stepsPerDay returns how many steps of the given size make one day, erroring
// when a day is not a whole number of steps (the generators assume it is).
func stepsPerDay(step time.Duration) (int, error) {
	if step <= 0 {
		return 0, trace.ErrBadStep
	}
	if (24*time.Hour)%step != 0 {
		return 0, fmt.Errorf("energy: step %v does not divide a day", step)
	}
	return int(24 * time.Hour / step), nil
}

// Generate produces one normalized power series (values in [0, 1], fraction
// of nameplate capacity) per site, jointly so that the correlation structure
// is consistent. All sites share the same time base.
func (w *World) Generate(cfgs []SiteConfig, start time.Time, step time.Duration, n int) ([]trace.Series, error) {
	defer obs.Time(w.Obs, "energy.generate")()
	w.Obs.Add("energy.samples", float64(n*len(cfgs)))
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("energy: no sites")
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	if n <= 0 {
		return nil, fmt.Errorf("energy: non-positive sample count %d", n)
	}
	spd, err := stepsPerDay(step)
	if err != nil {
		return nil, err
	}
	nDays := (n+spd-1)/spd + 1

	// Anchor latents fan out first: each anchor draws from its own
	// name-keyed sub-RNG, so worker count cannot change the samples.
	anchors := anchorGrid(cfgs)
	anchorData := make([]anchorSeries, len(anchors))
	err = par.ForEach(context.Background(), len(anchors), func(i int) error {
		rng := w.subRNG(fmt.Sprintf("anchor/%d", i))
		anchorData[i] = anchorSeries{
			cloudDaily: genOU(2.2, nDays, rng),          // ~2-day weather systems
			cloudFast:  genOU(float64(spd)/4, n, rng),   // ~6 h intra-day cloud field
			windSyn:    genOU(2.5*float64(spd), n, rng), // ~2.5-day synoptic wind
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The per-site pass fans out: each site reads only the shared anchor
	// latents and its own name-keyed sub-RNG, so any worker count produces
	// bit-identical series (asserted by TestGenerateParallelDeterminism).
	out := make([]trace.Series, len(cfgs))
	err = par.ForEach(context.Background(), len(cfgs), func(si int) error {
		cfg := cfgs[si]
		weights := w.anchorWeights(cfg, anchors)
		local := math.Sqrt(1 - w.regionalShare()*w.regionalShare())
		rng := w.subRNG("site/" + cfg.Name)
		switch cfg.Source {
		case Solar:
			daily := mixSeries(weights, anchorData, func(a anchorSeries) []float64 { return a.cloudDaily },
				genOU(2.2, nDays, rng), local)
			fast := mixSeries(weights, anchorData, func(a anchorSeries) []float64 { return a.cloudFast },
				genOU(float64(spd)/4, n, rng), local)
			out[si] = genSolar(cfg, start, step, n, spd, daily, fast)
		case Wind:
			syn := mixSeries(weights, anchorData, func(a anchorSeries) []float64 { return a.windSyn },
				genOU(2.5*float64(spd), n, rng), local)
			meso := genOU(float64(spd)/6, n, rng) // ~4 h local gust structure
			out[si] = genWind(cfg, start, step, n, syn, meso)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GeneratePower is Generate scaled by each site's CapacityMW, yielding
// megawatt series.
func (w *World) GeneratePower(cfgs []SiteConfig, start time.Time, step time.Duration, n int) ([]trace.Series, error) {
	norm, err := w.Generate(cfgs, start, step, n)
	if err != nil {
		return nil, err
	}
	for i := range norm {
		norm[i] = norm[i].Scale(cfgs[i].CapacityMW)
	}
	return norm, nil
}

// genOU samples n steps of a standardized OU process with the given time
// constant (in steps).
func genOU(tau float64, n int, rng *rand.Rand) []float64 {
	p := newOU(tau, rng)
	out := make([]float64, n)
	for i := range out {
		out[i] = p.step()
	}
	return out
}

// mixSeries blends anchor latents (selected by pick) with a local latent
// using the site's anchor weights; localScale is sqrt(1 - regionalShare^2).
func mixSeries(weights []float64, anchors []anchorSeries, pick func(anchorSeries) []float64, local []float64, localScale float64) []float64 {
	out := make([]float64, len(local))
	for i := range out {
		var v float64
		for k := range anchors {
			v += weights[k] * pick(anchors[k])[i]
		}
		out[i] = v + localScale*local[i]
	}
	return out
}
