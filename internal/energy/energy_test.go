package energy

import (
	"math"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/stats"
	"github.com/vbcloud/vb/internal/trace"
)

var start = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// yearTrio generates one year of 15-minute normalized traces for the
// NO/UK/PT trio, shared across tests.
func yearTrio(t *testing.T) ([]SiteConfig, []trace.Series) {
	t.Helper()
	w := NewWorld(42)
	cfgs := EuropeanTrio()
	series, err := w.Generate(cfgs, start, 15*time.Minute, 365*96)
	if err != nil {
		t.Fatal(err)
	}
	return cfgs, series
}

func TestSourceString(t *testing.T) {
	if Solar.String() != "solar" || Wind.String() != "wind" {
		t.Error("Source strings")
	}
	if Source(9).String() == "" {
		t.Error("unknown source should still format")
	}
}

func TestSiteConfigValidate(t *testing.T) {
	good := SiteConfig{Name: "x", Source: Wind, Latitude: 50, Longitude: 4, CapacityMW: 100}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []SiteConfig{
		{},
		{Name: "x", Source: Source(7), Latitude: 0, Longitude: 0, CapacityMW: 1},
		{Name: "x", Source: Wind, Latitude: 91, CapacityMW: 1},
		{Name: "x", Source: Wind, Longitude: 181, CapacityMW: 1},
		{Name: "x", Source: Wind, CapacityMW: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDistanceAndLatency(t *testing.T) {
	london := SiteConfig{Latitude: 51.5, Longitude: -0.1}
	paris := SiteConfig{Latitude: 48.9, Longitude: 2.35}
	d := DistanceKM(london, paris)
	if d < 300 || d > 400 {
		t.Errorf("London-Paris distance = %v km, want ~344", d)
	}
	if DistanceKM(london, london) != 0 {
		t.Error("self distance should be 0")
	}
	l := LatencyMS(london, paris)
	if l < 2 || l > 10 {
		t.Errorf("London-Paris latency = %v ms", l)
	}
	// Symmetric.
	if math.Abs(DistanceKM(london, paris)-DistanceKM(paris, london)) > 1e-9 {
		t.Error("distance should be symmetric")
	}
}

func TestGenerateErrors(t *testing.T) {
	w := NewWorld(1)
	if _, err := w.Generate(nil, start, time.Hour, 10); err == nil {
		t.Error("no sites should error")
	}
	if _, err := w.Generate([]SiteConfig{{}}, start, time.Hour, 10); err == nil {
		t.Error("invalid site should error")
	}
	good := EuropeanTrio()
	if _, err := w.Generate(good, start, time.Hour, 0); err == nil {
		t.Error("zero samples should error")
	}
	if _, err := w.Generate(good, start, 7*time.Hour, 10); err == nil {
		t.Error("step not dividing a day should error")
	}
	if _, err := w.Generate(good, start, 0, 10); err == nil {
		t.Error("zero step should error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfgs := EuropeanTrio()
	a, err := NewWorld(7).Generate(cfgs, start, time.Hour, 48)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorld(7).Generate(cfgs, start, time.Hour, 48)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				t.Fatalf("site %d sample %d differs: %v vs %v", i, j, a[i].Values[j], b[i].Values[j])
			}
		}
	}
	c, err := NewWorld(8).Generate(cfgs, start, time.Hour, 48)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for j := range a[0].Values {
		if a[0].Values[j] != c[0].Values[j] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different traces")
	}
}

func TestNormalizedRange(t *testing.T) {
	_, series := yearTrio(t)
	for i, s := range series {
		for j, v := range s.Values {
			if v < 0 || v > 1 {
				t.Fatalf("site %d sample %d = %v outside [0,1]", i, j, v)
			}
		}
	}
}

// TestFig2bSolarShape checks the paper's Figure 2b solar statistics: over
// 50% of samples are zero (night), and the tail is heavy with p99/p75 around
// 4x.
func TestFig2bSolarShape(t *testing.T) {
	_, series := yearTrio(t)
	solar := series[0]
	if z := solar.FractionZero(1e-9); z < 0.5 {
		t.Errorf("solar zero fraction = %v, want > 0.5 (nights)", z)
	}
	q, err := stats.Quantiles(solar.Values, 75, 99)
	if err != nil {
		t.Fatal(err)
	}
	ratio := stats.Ratio(q[1], q[0])
	if ratio < 2.5 {
		t.Errorf("solar p99/p75 = %v, want heavy tail (paper ~4x)", ratio)
	}
	if solar.Max() < 0.8 {
		t.Errorf("solar max = %v, should approach capacity on clear summer days", solar.Max())
	}
}

// TestFig2bWindShape checks the wind statistics: median at most ~20% of
// peak, rarely zero, p99/p75 around 2x.
func TestFig2bWindShape(t *testing.T) {
	_, series := yearTrio(t)
	for _, idx := range []int{1, 2} {
		wind := series[idx]
		q, err := stats.Quantiles(wind.Values, 50, 75, 99)
		if err != nil {
			t.Fatal(err)
		}
		if q[0] > 0.25 {
			t.Errorf("wind median = %v, want <= 0.25 (paper: <= 0.2)", q[0])
		}
		if z := wind.FractionZero(1e-9); z > 0.15 {
			t.Errorf("wind zero fraction = %v, want rare zeros", z)
		}
		ratio := stats.Ratio(q[2], q[1])
		if ratio < 1.5 || ratio > 4 {
			t.Errorf("wind p99/p75 = %v, want ~2x", ratio)
		}
	}
}

// TestSolarDiurnal checks that solar output is zero at local midnight and
// usually positive at local noon.
func TestSolarDiurnal(t *testing.T) {
	_, series := yearTrio(t)
	solar := series[0]
	noonPositive, nights := 0, 0
	days := 30
	for d := 150; d < 150+days; d++ { // summer days
		midnight := solar.Values[d*96]
		noon := solar.Values[d*96+48]
		if midnight != 0 {
			t.Fatalf("day %d: midnight output %v != 0", d, midnight)
		}
		nights++
		if noon > 0 {
			noonPositive++
		}
	}
	if noonPositive < days*9/10 {
		t.Errorf("only %d/%d summer noons have output", noonPositive, days)
	}
}

// TestSolarSeasonal checks the paper's observation that winter peak
// production is far below summer peak at high latitude.
func TestSolarSeasonal(t *testing.T) {
	_, series := yearTrio(t)
	solar := series[0] // Oslo, 59.9N
	jun := solar.Window(time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC), time.Date(2020, 6, 28, 0, 0, 0, 0, time.UTC))
	dec := solar.Window(time.Date(2020, 12, 1, 0, 0, 0, 0, time.UTC), time.Date(2020, 12, 28, 0, 0, 0, 0, time.UTC))
	if dec.Max() > 0.5*jun.Max() {
		t.Errorf("winter peak %v vs summer peak %v: want winter << summer", dec.Max(), jun.Max())
	}
}

// TestComplementarity checks that solar and wind are negatively correlated
// (wind blows more at night and in winter), the root of multi-VB stability.
func TestComplementarity(t *testing.T) {
	_, series := yearTrio(t)
	r, err := stats.Pearson(series[0].Values, series[1].Values)
	if err != nil {
		t.Fatal(err)
	}
	if r > -0.05 {
		t.Errorf("solar-wind correlation = %v, want negative", r)
	}
}

// TestSpatialCorrelation checks that nearby same-source sites correlate more
// strongly than distant ones.
func TestSpatialCorrelation(t *testing.T) {
	w := NewWorld(42)
	cfgs := []SiteConfig{
		{Name: "A", Source: Wind, Latitude: 53.5, Longitude: -1.5, CapacityMW: 400},
		{Name: "B", Source: Wind, Latitude: 53.9, Longitude: -1.2, CapacityMW: 400},
		{Name: "C", Source: Wind, Latitude: 40.0, Longitude: 20.0, CapacityMW: 400},
	}
	series, err := w.Generate(cfgs, start, 15*time.Minute, 60*96)
	if err != nil {
		t.Fatal(err)
	}
	near, err := stats.Pearson(series[0].Values, series[1].Values)
	if err != nil {
		t.Fatal(err)
	}
	far, err := stats.Pearson(series[0].Values, series[2].Values)
	if err != nil {
		t.Fatal(err)
	}
	if near <= far {
		t.Errorf("near correlation %v should exceed far correlation %v", near, far)
	}
	if near < 0.1 {
		t.Errorf("near same-source correlation = %v, too weak", near)
	}
}

func TestGeneratePowerScales(t *testing.T) {
	w := NewWorld(42)
	cfgs := EuropeanTrio()
	norm, err := w.Generate(cfgs, start, time.Hour, 24)
	if err != nil {
		t.Fatal(err)
	}
	power, err := w.GeneratePower(cfgs, start, time.Hour, 24)
	if err != nil {
		t.Fatal(err)
	}
	for i := range norm {
		for j := range norm[i].Values {
			want := norm[i].Values[j] * cfgs[i].CapacityMW
			if math.Abs(power[i].Values[j]-want) > 1e-9 {
				t.Fatalf("site %d sample %d: %v != %v", i, j, power[i].Values[j], want)
			}
		}
	}
}

func TestPowerCurve(t *testing.T) {
	cases := []struct {
		v    float64
		want float64
	}{
		{0, 0}, {2.9, 0}, {3, 0}, {12.5, 1}, {20, 1}, {25, 0}, {30, 0},
	}
	for _, c := range cases {
		if got := powerCurve(c.v); got != c.want {
			t.Errorf("powerCurve(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	// Monotone in the cubic region.
	prev := -1.0
	for v := 3.0; v <= 12.5; v += 0.1 {
		p := powerCurve(v)
		if p < prev {
			t.Fatalf("power curve not monotone at %v", v)
		}
		prev = p
	}
}

func TestClassifyRegime(t *testing.T) {
	if classifyRegime(-2) != regimeSunny {
		t.Error("very clear latent should be sunny")
	}
	if classifyRegime(0.3) != regimeVariable {
		t.Error("mid latent should be variable")
	}
	if classifyRegime(2) != regimeOvercast {
		t.Error("very cloudy latent should be overcast")
	}
	for _, r := range []regime{regimeSunny, regimeVariable, regimeOvercast} {
		if r.String() == "" {
			t.Error("regime String should be non-empty")
		}
	}
}

func TestTransmittanceBounds(t *testing.T) {
	for _, r := range []regime{regimeSunny, regimeVariable, regimeOvercast} {
		for z := -4.0; z <= 4; z += 0.5 {
			tr := transmittance(r, z)
			if tr < 0 || tr > 1 {
				t.Fatalf("transmittance(%v, %v) = %v outside [0,1]", r, z, tr)
			}
		}
	}
	// Overcast days must be far darker than sunny days.
	if transmittance(regimeOvercast, 0) > 0.3*transmittance(regimeSunny, 0) {
		t.Error("overcast transmittance should collapse production")
	}
}

func TestStableVariableSplit(t *testing.T) {
	// Constant 100 MW for a day: everything is stable.
	s := trace.FromValues(start, time.Hour, make([]float64, 24))
	for i := range s.Values {
		s.Values[i] = 100
	}
	split, err := StableVariableSplit(s, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(split.StableMWh-2400) > 1e-9 || math.Abs(split.VariableMWh) > 1e-9 {
		t.Errorf("constant split = %+v", split)
	}
	if split.StableFraction() != 1 {
		t.Errorf("StableFraction = %v", split.StableFraction())
	}
	// One zero sample makes the whole window variable.
	s.Values[5] = 0
	split, err = StableVariableSplit(s, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if split.StableMWh != 0 {
		t.Errorf("zero-dip stable = %v, want 0", split.StableMWh)
	}
	// Shorter windows recover some stability.
	split, err = StableVariableSplit(s, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if split.StableMWh <= 0 {
		t.Error("2h-window stable energy should be positive")
	}
	if _, err := StableVariableSplit(s, 7*time.Hour); err == nil {
		t.Error("window not dividing series should error")
	}
	var empty Split
	if empty.StableFraction() != 0 {
		t.Error("empty split fraction should be 0")
	}
}

// TestFig3bAggregationIncreasesStableFraction is the core §2.3 result: in a
// complementary window, aggregating the trio yields a larger stable fraction
// than the best single site, and solar alone has zero stable energy.
func TestFig3bAggregationIncreasesStableFraction(t *testing.T) {
	w := NewWorld(42)
	cfgs := EuropeanTrio()
	yr, err := w.GeneratePower(cfgs, start, time.Hour, 365*24)
	if err != nil {
		t.Fatal(err)
	}
	idx, frac, err := BestWindow(yr, 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.3 {
		t.Errorf("best 3-day window stable fraction = %v, want >= 0.3 (paper: 0.67)", frac)
	}
	win := make([]trace.Series, len(yr))
	for i := range yr {
		win[i] = yr[i].Slice(idx, idx+72)
	}
	combos, err := Combinations([]string{"NO", "UK", "PT"}, win, 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]ComboResult{}
	for _, c := range combos {
		key := ""
		for _, n := range c.Names {
			key += n + "+"
		}
		byKey[key] = c
	}
	if len(combos) != 7 {
		t.Fatalf("expected 7 combos, got %d", len(combos))
	}
	no := byKey["NO+"]
	trio := byKey["NO+UK+PT+"]
	if no.Split.StableFraction() != 0 {
		t.Errorf("solar-only stable fraction = %v, want 0 (nights)", no.Split.StableFraction())
	}
	if trio.Split.StableFraction() <= no.Split.StableFraction() {
		t.Error("trio should have higher stable fraction than solar alone")
	}
	// Aggregation reduces cov (Fig 3a): trio cov below solar-only cov.
	if trio.CoV >= no.CoV {
		t.Errorf("trio cov %v should be below solar cov %v", trio.CoV, no.CoV)
	}
}

func TestCombinationsErrors(t *testing.T) {
	if _, err := Combinations([]string{"a"}, nil, time.Hour); err == nil {
		t.Error("mismatch should error")
	}
	names := make([]string, 17)
	powers := make([]trace.Series, 17)
	if _, err := Combinations(names, powers, time.Hour); err == nil {
		t.Error("too many sites should error")
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := Aggregate([]string{"a"}, nil, time.Hour); err == nil {
		t.Error("mismatch should error")
	}
	a := trace.FromValues(start, time.Hour, []float64{1, 2})
	b := trace.FromValues(start, 30*time.Minute, []float64{1, 2})
	if _, err := Aggregate([]string{"a", "b"}, []trace.Series{a, b}, time.Hour); err == nil {
		t.Error("incompatible series should error")
	}
}

// TestPairImprovementClaim verifies the §2.3 claim: more than 52% of 2-site
// combinations have some 3-day interval where aggregation improves cov by
// more than 50%.
func TestPairImprovementClaim(t *testing.T) {
	w := NewWorld(42)
	fleet := EuropeanFleet(12)
	names := make([]string, len(fleet))
	for i := range fleet {
		names[i] = fleet[i].Name
	}
	best := map[string]float64{}
	for m := 0; m < 24; m++ {
		st := time.Date(2020, 1, 1+m*15, 0, 0, 0, 0, time.UTC)
		fp, err := w.GeneratePower(fleet, st, time.Hour, 72)
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := AllPairs(names, fp)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			k := p.A + "/" + p.B
			if v := p.Improvement(); v > best[k] {
				best[k] = v
			}
		}
	}
	n2 := 0
	for _, v := range best {
		if v >= 2 {
			n2++
		}
	}
	frac := float64(n2) / float64(len(best))
	if frac <= 0.52 {
		t.Errorf("fraction of pairs improving cov >50%% = %v, paper claims > 0.52", frac)
	}
}

func TestAllPairsErrors(t *testing.T) {
	if _, err := AllPairs([]string{"a"}, nil); err == nil {
		t.Error("mismatch should error")
	}
	a := trace.FromValues(start, time.Hour, []float64{1, 2})
	b := trace.FromValues(start, 30*time.Minute, []float64{1, 2})
	if _, err := AllPairs([]string{"a", "b"}, []trace.Series{a, b}); err == nil {
		t.Error("incompatible should error")
	}
}

func TestFractionImproved(t *testing.T) {
	pairs := []PairImprovement{
		{BaselineCoV: 2, PairCoV: 0.5}, // 4x
		{BaselineCoV: 2, PairCoV: 1.5}, // 1.33x
		{BaselineCoV: 2, PairCoV: 0},   // inf
	}
	if got := FractionImproved(pairs, 2); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("FractionImproved = %v", got)
	}
	if FractionImproved(nil, 2) != 0 {
		t.Error("empty should be 0")
	}
}

func TestPlanTopUp(t *testing.T) {
	// Power alternating 0 and 100 MW hourly for 10 hours.
	vals := make([]float64, 10)
	for i := range vals {
		if i%2 == 1 {
			vals[i] = 100
		}
	}
	s := trace.FromValues(start, time.Hour, vals)
	// Budget 250 MWh: can afford floor of 50 MW (5 zero-hours x 50).
	tu, err := PlanTopUp(s, 250)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tu.FloorMW-50) > 0.5 {
		t.Errorf("floor = %v, want ~50", tu.FloorMW)
	}
	if math.Abs(tu.PurchasedMWh-250) > 2 {
		t.Errorf("purchased = %v, want ~250", tu.PurchasedMWh)
	}
	// Floor raise from 0 to 50 over 10h = 500 MWh added stable, of which
	// 250 purchased and 250 stabilized from variable production.
	if math.Abs(tu.AddedStableMWh-500) > 5 {
		t.Errorf("added stable = %v, want ~500", tu.AddedStableMWh)
	}
	if math.Abs(tu.StabilizedMWh-250) > 5 {
		t.Errorf("stabilized = %v, want ~250", tu.StabilizedMWh)
	}
	if _, err := PlanTopUp(trace.Series{}, 10); err == nil {
		t.Error("empty series should error")
	}
	if _, err := PlanTopUp(s, -1); err == nil {
		t.Error("negative budget should error")
	}
	// Zero budget: floor stays at the minimum.
	tu, err = PlanTopUp(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tu.FloorMW > 1e-6 || tu.AddedStableMWh > 1e-6 {
		t.Errorf("zero budget should not raise floor: %+v", tu)
	}
}

func TestBestWindow(t *testing.T) {
	w := NewWorld(42)
	yr, err := w.GeneratePower(EuropeanTrio(), start, time.Hour, 60*24)
	if err != nil {
		t.Fatal(err)
	}
	idx, frac, err := BestWindow(yr, 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if idx < 0 || idx+72 > yr[0].Len() {
		t.Errorf("best window index %d out of range", idx)
	}
	if frac < 0 || frac > 1 {
		t.Errorf("stable fraction %v out of range", frac)
	}
	if _, _, err := BestWindow(yr, 100*24*time.Hour); err == nil {
		t.Error("window longer than series should error")
	}
	if _, _, err := BestWindow(nil, time.Hour); err == nil {
		t.Error("no series should error")
	}
}

func TestFleetConstructors(t *testing.T) {
	trio := EuropeanTrio()
	if len(trio) != 3 {
		t.Fatalf("trio size = %d", len(trio))
	}
	for _, c := range trio {
		if err := c.Validate(); err != nil {
			t.Errorf("trio site %s invalid: %v", c.Name, err)
		}
	}
	fleet := EuropeanFleet(5)
	if len(fleet) != 5 {
		t.Errorf("fleet(5) size = %d", len(fleet))
	}
	all := EuropeanFleet(0)
	if len(all) < 10 {
		t.Errorf("fleet(0) should return all templates, got %d", len(all))
	}
	for _, c := range all {
		if err := c.Validate(); err != nil {
			t.Errorf("fleet site %s invalid: %v", c.Name, err)
		}
	}
	if got := EuropeanFleet(100); len(got) != len(all) {
		t.Errorf("fleet(100) should clamp to %d, got %d", len(all), len(got))
	}
}

func TestAnchorWeightsUnitShare(t *testing.T) {
	w := NewWorld(1)
	cfgs := EuropeanFleet(6)
	anchors := anchorGrid(cfgs)
	for _, c := range cfgs {
		ws := w.anchorWeights(c, anchors)
		var ss float64
		for _, x := range ws {
			ss += x * x
		}
		want := w.regionalShare() * w.regionalShare()
		if math.Abs(ss-want) > 1e-9 {
			t.Errorf("site %s: sum of squared weights = %v, want %v", c.Name, ss, want)
		}
	}
}

func TestOUStationary(t *testing.T) {
	rng := NewWorld(3).subRNG("test")
	xs := genOU(10, 20000, rng)
	m := stats.Mean(xs)
	sd := stats.StdDev(xs)
	if math.Abs(m) > 0.1 {
		t.Errorf("OU mean = %v, want ~0", m)
	}
	if math.Abs(sd-1) > 0.1 {
		t.Errorf("OU std = %v, want ~1", sd)
	}
}

// TestDistributionStableAcrossSeeds: the generative models must produce the
// same power *distribution* for any seed (only the sample path changes) —
// checked with a two-sample KS statistic.
func TestDistributionStableAcrossSeeds(t *testing.T) {
	cfgs := EuropeanTrio()
	gen := func(seed uint64) []trace.Series {
		s, err := NewWorld(seed).Generate(cfgs, start, time.Hour, 120*24)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := gen(1)
	b := gen(2)
	for i, cfg := range cfgs {
		d, err := stats.KolmogorovSmirnov(a[i].Values, b[i].Values)
		if err != nil {
			t.Fatal(err)
		}
		if d > 0.08 {
			t.Errorf("%s: KS distance across seeds = %v, distributions should match", cfg.Name, d)
		}
	}
}
