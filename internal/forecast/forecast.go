// Package forecast produces power forecasts with horizon-calibrated error,
// standing in for the weather-model forecasts shipped with the ELIA dataset
// (paper §3.1, Fig 5). The paper's headline error figures are the targets:
//
//	3-hour ahead: 8.5-9% MAPE
//	day ahead:    18-25% MAPE
//	week ahead:   44% (solar) and 75% (wind) MAPE
//
// A forecast is generated as truth multiplied by a slowly varying lognormal
// error process whose magnitude grows with horizon. Multiplicative error
// preserves the *timing* of sharp power changes — the property §3.1 relies
// on ("bulk of migrations occur when there are sharp changes in power,
// which can be predicted with at least a day of notice") — while degrading
// the predicted magnitude exactly as far-out weather forecasts do.
package forecast

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"github.com/vbcloud/vb/internal/energy"
	"github.com/vbcloud/vb/internal/obs"
	"github.com/vbcloud/vb/internal/stats"
	"github.com/vbcloud/vb/internal/trace"
)

// Standard horizons reported by the paper.
const (
	Horizon3H   = 3 * time.Hour
	HorizonDay  = 24 * time.Hour
	HorizonWeek = 7 * 24 * time.Hour
)

// Forecaster generates deterministic pseudo-forecasts for power series.
type Forecaster struct {
	// Seed namespaces the error processes; forecasts are deterministic
	// given (Seed, series identity label, horizon).
	Seed uint64
	// Obs, when non-nil, receives generation timings and is inherited by
	// bundles built with NewBundle (horizon-switch events).
	Obs *obs.Registry
}

// New returns a Forecaster with the given seed.
func New(seed uint64) *Forecaster {
	return &Forecaster{Seed: seed}
}

// sigmaFor returns the lognormal error scale for a source and horizon. The
// exponents and coefficients are calibrated so the measured MAPE lands in
// the paper's bands (see TestMAPECalibration).
func sigmaFor(src energy.Source, horizon time.Duration) float64 {
	h := horizon.Hours()
	if h < 0.25 {
		h = 0.25
	}
	switch src {
	case energy.Solar:
		return 0.068 * math.Pow(h, 0.40)
	default: // wind
		return 0.0556 * math.Pow(h, 0.62)
	}
}

// Forecast returns a series aligned with truth where sample i is the power
// predicted for interval i by a forecast issued `horizon` earlier. label
// should identify the site so different sites get independent error
// processes.
func (f *Forecaster) Forecast(truth trace.Series, src energy.Source, horizon time.Duration, label string) (trace.Series, error) {
	defer obs.Time(f.Obs, "forecast.generate")()
	if truth.IsEmpty() {
		return trace.Series{}, trace.ErrEmptySeries
	}
	if horizon <= 0 {
		return trace.Series{}, fmt.Errorf("forecast: non-positive horizon %v", horizon)
	}
	sigma := sigmaFor(src, horizon)

	// Error process: OU with a correlation time of half the horizon (errors
	// in a single forecast issue persist across nearby target times).
	tauSteps := (horizon / 2).Seconds() / truth.Step.Seconds()
	if tauSteps < 1 {
		tauSteps = 1
	}
	rng := f.subRNG(fmt.Sprintf("%s/%s/%d", label, src, int64(horizon)))
	out := truth.Clone()
	a := math.Exp(-1 / tauSteps)
	z := rng.NormFloat64()
	for i := range out.Values {
		z = a*z + math.Sqrt(1-a*a)*rng.NormFloat64()
		factor := math.Exp(sigma*z - sigma*sigma/2)
		out.Values[i] *= factor
	}
	// A real forecast cannot exceed nameplate capacity; keep the truth's
	// scale by clamping to the truth maximum.
	return out.Clamp(0, math.Max(truth.Max(), 1e-9)), nil
}

// Bundle bundles forecasts of one site at the standard horizons and selects
// the right one for an arbitrary lead time (nearest horizon at or above the
// lead, as an operator would use the freshest forecast still covering it).
type Bundle struct {
	truth    trace.Series
	horizons []time.Duration
	series   []trace.Series
	fixed    time.Duration
	// obs receives horizon-switch events; lastHorizon (atomic, ns) is the
	// horizon the previous PredictAt answered from, so only genuine
	// switches are traced.
	obs         *obs.Registry
	lastHorizon int64
}

// NewBundle generates forecasts for the standard 3 h / day / week horizons.
func (f *Forecaster) NewBundle(truth trace.Series, src energy.Source, label string) (*Bundle, error) {
	hs := []time.Duration{Horizon3H, HorizonDay, HorizonWeek}
	b := &Bundle{truth: truth, horizons: hs, obs: f.Obs}
	for _, h := range hs {
		s, err := f.Forecast(truth, src, h, label)
		if err != nil {
			return nil, err
		}
		b.series = append(b.series, s)
	}
	return b, nil
}

// SetObs attaches an observability registry: subsequent PredictAt calls
// emit a HorizonSwitch event whenever they answer from a different
// standard horizon than the previous call. Pass nil to detach.
func (b *Bundle) SetObs(r *obs.Registry) { b.obs = r }

// noteHorizon traces horizon changes (h = 0 means nowcast/truth).
func (b *Bundle) noteHorizon(h time.Duration) {
	if b.obs == nil {
		return
	}
	old := atomic.SwapInt64(&b.lastHorizon, int64(h))
	if old == int64(h) {
		return
	}
	b.obs.Inc("forecast.horizon_switches")
	b.obs.Emit(obs.Event{Type: obs.HorizonSwitch, Step: -1, App: -1, Site: -1, Dst: -1,
		DurNS: int64(h), Detail: time.Duration(old).String() + "->" + h.String()})
}

// UseFixedHorizon makes PredictAt always answer from the forecast at the
// given standard horizon, regardless of lead time. This mirrors offline
// evaluation against a historical forecast archive (ELIA publishes its
// day-ahead forecasts for every past timestamp), the setting the paper's
// scheduler experiment uses. Pass 0 to restore lead-dependent selection.
func (b *Bundle) UseFixedHorizon(h time.Duration) error {
	if h == 0 {
		b.fixed = 0
		return nil
	}
	if _, err := b.Horizon(h); err != nil {
		return err
	}
	b.fixed = h
	return nil
}

// Horizon returns the forecast series for the given standard horizon, or an
// error if it was not generated.
func (b *Bundle) Horizon(h time.Duration) (trace.Series, error) {
	for i, bh := range b.horizons {
		if bh == h {
			return b.series[i], nil
		}
	}
	return trace.Series{}, fmt.Errorf("forecast: no %v horizon in bundle", h)
}

// PredictAt returns the power predicted for target time, as seen from `now`:
// the forecast at the smallest standard horizon covering the lead time.
// Target times at or before now return the truth (nowcast). It returns false
// when the target is outside the series.
func (b *Bundle) PredictAt(now, target time.Time) (float64, bool) {
	lead := target.Sub(now)
	if lead <= 0 {
		b.noteHorizon(0)
		return b.truth.At(target)
	}
	if b.fixed != 0 {
		s, err := b.Horizon(b.fixed)
		if err != nil {
			return 0, false
		}
		b.noteHorizon(b.fixed)
		return s.At(target)
	}
	for i, h := range b.horizons {
		if lead <= h {
			b.noteHorizon(h)
			return b.series[i].At(target)
		}
	}
	// Beyond the longest horizon: use the longest one.
	b.noteHorizon(b.horizons[len(b.horizons)-1])
	return b.series[len(b.series)-1].At(target)
}

// Accuracy evaluates forecast error against truth. floor excludes samples
// with |truth| <= floor from the MAPE (percentage error is undefined at zero
// production, e.g. solar at night) — the convention forecast vendors use.
func Accuracy(fc, truth trace.Series, floor float64) (mapePct float64, err error) {
	if fc.Len() != truth.Len() {
		return 0, fmt.Errorf("forecast: accuracy length mismatch %d vs %d", fc.Len(), truth.Len())
	}
	return stats.MAPE(fc.Values, truth.Values, floor)
}

func (f *Forecaster) subRNG(label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", f.Seed, label)
	s := h.Sum64()
	return rand.New(rand.NewPCG(s, s^0x6a09e667f3bcc909))
}

// Persistence returns the naive baseline forecast: the prediction for time
// t is the observation at t-horizon ("tomorrow looks like today"). Real
// weather-model forecasts must beat this to be worth anything; comparing it
// with Forecast shows how much the calibrated model's skill matters to the
// scheduler.
func Persistence(truth trace.Series, horizon time.Duration) (trace.Series, error) {
	if truth.IsEmpty() {
		return trace.Series{}, trace.ErrEmptySeries
	}
	if horizon <= 0 {
		return trace.Series{}, fmt.Errorf("forecast: non-positive horizon %v", horizon)
	}
	if truth.Step <= 0 {
		return trace.Series{}, trace.ErrBadStep
	}
	lag := int(horizon / truth.Step)
	return truth.Lag(lag), nil
}
