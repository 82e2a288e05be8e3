package forecast

import (
	"math"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/energy"
	"github.com/vbcloud/vb/internal/trace"
)

var start = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func genTrio(t *testing.T, days int) ([]energy.SiteConfig, []trace.Series) {
	t.Helper()
	w := energy.NewWorld(42)
	cfgs := energy.EuropeanTrio()
	series, err := w.Generate(cfgs, start, 15*time.Minute, days*96)
	if err != nil {
		t.Fatal(err)
	}
	return cfgs, series
}

func TestForecastErrors(t *testing.T) {
	f := New(1)
	if _, err := f.Forecast(trace.Series{}, energy.Solar, Horizon3H, "x"); err == nil {
		t.Error("empty truth should error")
	}
	s := trace.FromValues(start, time.Hour, []float64{1, 2})
	if _, err := f.Forecast(s, energy.Solar, 0, "x"); err == nil {
		t.Error("zero horizon should error")
	}
	if _, err := f.Forecast(s, energy.Solar, -time.Hour, "x"); err == nil {
		t.Error("negative horizon should error")
	}
}

func TestForecastDeterministic(t *testing.T) {
	_, series := genTrio(t, 10)
	a, err := New(5).Forecast(series[0], energy.Solar, HorizonDay, "NO")
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(5).Forecast(series[0], energy.Solar, HorizonDay, "NO")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("same seed should reproduce forecasts")
		}
	}
	c, err := New(5).Forecast(series[0], energy.Solar, HorizonDay, "OTHER")
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Values {
		if a.Values[i] != c.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different labels should give different error draws")
	}
}

func TestForecastPreservesZerosAndBounds(t *testing.T) {
	_, series := genTrio(t, 30)
	solar := series[0]
	fc, err := New(1).Forecast(solar, energy.Solar, HorizonDay, "NO")
	if err != nil {
		t.Fatal(err)
	}
	max := solar.Max()
	for i, v := range fc.Values {
		if solar.Values[i] == 0 && v != 0 {
			t.Fatalf("forecast invents power at night: sample %d = %v", i, v)
		}
		if v < 0 || v > max+1e-9 {
			t.Fatalf("forecast sample %d = %v outside [0, %v]", i, v, max)
		}
	}
}

// TestMAPECalibration checks the paper's Fig 5 error bands: near horizons
// are accurate, far horizons degrade, wind degrades faster than solar.
func TestMAPECalibration(t *testing.T) {
	cfgs, series := genTrio(t, 120)
	f := New(7)
	type band struct{ lo, hi float64 }
	bands := map[energy.Source]map[time.Duration]band{
		energy.Solar: {
			Horizon3H:   {6, 11},
			HorizonDay:  {15, 28},
			HorizonWeek: {35, 55},
		},
		energy.Wind: {
			Horizon3H:   {6, 11},
			HorizonDay:  {17, 30},
			HorizonWeek: {55, 95},
		},
	}
	for i, cfg := range cfgs {
		for h, b := range bands[cfg.Source] {
			fc, err := f.Forecast(series[i], cfg.Source, h, cfg.Name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Accuracy(fc, series[i], 0.02)
			if err != nil {
				t.Fatal(err)
			}
			if m < b.lo || m > b.hi {
				t.Errorf("%s %v MAPE = %.1f%%, want in [%v, %v]", cfg.Name, h, m, b.lo, b.hi)
			}
		}
	}
}

// TestMAPEGrowsWithHorizon checks monotone degradation across horizons.
func TestMAPEGrowsWithHorizon(t *testing.T) {
	cfgs, series := genTrio(t, 90)
	f := New(3)
	for i, cfg := range cfgs {
		prev := -1.0
		for _, h := range []time.Duration{Horizon3H, HorizonDay, HorizonWeek} {
			fc, err := f.Forecast(series[i], cfg.Source, h, cfg.Name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Accuracy(fc, series[i], 0.02)
			if err != nil {
				t.Fatal(err)
			}
			if m <= prev {
				t.Errorf("%s: MAPE at %v (%.1f%%) should exceed shorter horizon (%.1f%%)", cfg.Name, h, m, prev)
			}
			prev = m
		}
	}
}

func TestBundle(t *testing.T) {
	_, series := genTrio(t, 10)
	b, err := New(2).NewBundle(series[1], energy.Wind, "UK")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Horizon(HorizonDay); err != nil {
		t.Errorf("day horizon missing: %v", err)
	}
	if _, err := b.Horizon(5 * time.Hour); err == nil {
		t.Error("nonstandard horizon should error")
	}

	now := start.Add(24 * time.Hour)
	// Past target: nowcast equals truth.
	past := start.Add(23 * time.Hour)
	v, ok := b.PredictAt(now, past)
	if !ok {
		t.Fatal("past target should resolve")
	}
	truthV, _ := series[1].At(past)
	if v != truthV {
		t.Errorf("nowcast %v != truth %v", v, truthV)
	}
	// 2h lead uses the 3h forecast.
	target := now.Add(2 * time.Hour)
	v, ok = b.PredictAt(now, target)
	if !ok {
		t.Fatal("2h lead should resolve")
	}
	h3, _ := b.Horizon(Horizon3H)
	want, _ := h3.At(target)
	if v != want {
		t.Errorf("2h lead = %v, want 3h-horizon value %v", v, want)
	}
	// 30h lead: beyond day horizon, uses week.
	target = now.Add(30 * time.Hour)
	v, ok = b.PredictAt(now, target)
	if !ok {
		t.Fatal("30h lead should resolve")
	}
	hw, _ := b.Horizon(HorizonWeek)
	want, _ = hw.At(target)
	if v != want {
		t.Errorf("30h lead = %v, want week-horizon value %v", v, want)
	}
	// Lead beyond a week still uses week horizon.
	if _, ok := b.PredictAt(start, start.Add(11*24*time.Hour)); ok {
		t.Error("target outside the series should return false")
	}
}

func TestAccuracyErrors(t *testing.T) {
	a := trace.FromValues(start, time.Hour, []float64{1, 2})
	b := trace.FromValues(start, time.Hour, []float64{1})
	if _, err := Accuracy(a, b, 0); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestSigmaForMonotone(t *testing.T) {
	for _, src := range []energy.Source{energy.Solar, energy.Wind} {
		prev := 0.0
		for _, h := range []time.Duration{time.Minute, Horizon3H, HorizonDay, HorizonWeek} {
			s := sigmaFor(src, h)
			if s <= prev {
				t.Errorf("%v sigma at %v = %v not increasing", src, h, s)
			}
			prev = s
		}
	}
	// Wind degrades faster than solar at long horizons.
	if sigmaFor(energy.Wind, HorizonWeek) <= sigmaFor(energy.Solar, HorizonWeek) {
		t.Error("week-ahead wind error should exceed solar")
	}
	if math.IsNaN(sigmaFor(energy.Solar, time.Second)) {
		t.Error("tiny horizon should clamp, not NaN")
	}
}

func TestPersistence(t *testing.T) {
	_, series := genTrio(t, 30)
	solar := series[0]
	p, err := Persistence(solar, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// A 24h lag aligns the diurnal cycle: sample i equals sample i-96.
	if p.Values[200] != solar.Values[200-96] {
		t.Error("persistence should lag the truth by the horizon")
	}
	if _, err := Persistence(trace.Series{}, time.Hour); err == nil {
		t.Error("empty truth should error")
	}
	if _, err := Persistence(solar, 0); err == nil {
		t.Error("zero horizon should error")
	}
}

// TestCalibratedBeatsPersistenceShortHorizon: at 3 hours the calibrated
// model must beat the naive baseline (real forecasts have skill).
func TestCalibratedBeatsPersistenceShortHorizon(t *testing.T) {
	cfgs, series := genTrio(t, 60)
	f := New(7)
	for i, cfg := range cfgs {
		fc, err := f.Forecast(series[i], cfg.Source, Horizon3H, cfg.Name)
		if err != nil {
			t.Fatal(err)
		}
		calibrated, err := Accuracy(fc, series[i], 0.02)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Persistence(series[i], Horizon3H)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := Accuracy(p, series[i], 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if calibrated >= naive {
			t.Errorf("%s: calibrated 3h MAPE %.1f%% should beat persistence %.1f%%",
				cfg.Name, calibrated, naive)
		}
	}
}
