package energy

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/vbcloud/vb/internal/stats"
	"github.com/vbcloud/vb/internal/trace"
)

// Split is the decomposition of produced energy into a guaranteed (stable)
// part and a leftover (variable) part, per §2.3: over each window, the
// minimum power level times the window length is energy that is certain to
// be available and can back stable VMs; everything above it is variable and
// suits degradable VMs (spot/harvest).
type Split struct {
	// StableMWh is the guaranteed energy across all windows.
	StableMWh float64
	// VariableMWh is the remaining produced energy.
	VariableMWh float64
}

// TotalMWh returns stable + variable energy.
func (s Split) TotalMWh() float64 { return s.StableMWh + s.VariableMWh }

// StableFraction returns the stable share of total energy (0 when no energy
// was produced).
func (s Split) StableFraction() float64 {
	t := s.TotalMWh()
	if t == 0 {
		return 0
	}
	return s.StableMWh / t
}

// StableVariableSplit decomposes a power series (MW) into stable and
// variable energy using the given guarantee window (the paper uses the full
// 3-day interval as one window in Fig 3b; shorter windows give a
// finer-grained guarantee).
func StableVariableSplit(power trace.Series, window time.Duration) (Split, error) {
	mins, err := power.WindowMin(window)
	if err != nil {
		return Split{}, err
	}
	stable := mins.Total() * window.Hours()
	total := power.Energy()
	return Split{StableMWh: stable, VariableMWh: total - stable}, nil
}

// ComboResult reports the variability and stable-energy outcome of
// aggregating a set of sites.
type ComboResult struct {
	// Names of the aggregated sites.
	Names []string
	// CoV is the coefficient of variation of the summed power.
	CoV float64
	// Split is the stable/variable decomposition of the summed power.
	Split Split
}

// Aggregate sums the given power series and evaluates the combination.
func Aggregate(names []string, powers []trace.Series, window time.Duration) (ComboResult, error) {
	if len(names) != len(powers) {
		return ComboResult{}, fmt.Errorf("energy: %d names for %d series", len(names), len(powers))
	}
	sum, err := trace.Sum(powers...)
	if err != nil {
		return ComboResult{}, err
	}
	split, err := StableVariableSplit(sum, window)
	if err != nil {
		return ComboResult{}, err
	}
	return ComboResult{
		Names: append([]string(nil), names...),
		CoV:   stats.CoV(sum.Values),
		Split: split,
	}, nil
}

// Combinations evaluates every non-empty subset of the sites (intended for
// small fleets like the paper's NO/UK/PT trio) and returns results ordered
// by subset size then name. This regenerates Fig 3b.
func Combinations(names []string, powers []trace.Series, window time.Duration) ([]ComboResult, error) {
	if len(names) != len(powers) {
		return nil, fmt.Errorf("energy: %d names for %d series", len(names), len(powers))
	}
	if len(names) > 16 {
		return nil, fmt.Errorf("energy: too many sites for exhaustive combinations: %d", len(names))
	}
	var out []ComboResult
	for mask := 1; mask < 1<<len(names); mask++ {
		var ns []string
		var ps []trace.Series
		for i := range names {
			if mask&(1<<i) != 0 {
				ns = append(ns, names[i])
				ps = append(ps, powers[i])
			}
		}
		r, err := Aggregate(ns, ps, window)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Names) != len(out[j].Names) {
			return len(out[i].Names) < len(out[j].Names)
		}
		return fmt.Sprint(out[i].Names) < fmt.Sprint(out[j].Names)
	})
	return out, nil
}

// PairImprovement reports, for every unordered pair of sites, how much
// aggregation reduces variability. The baseline is the higher (worse) of the
// two individual covs — the variability improvement seen by the operator of
// the more volatile site when a complementary partner is added — and the
// improvement is baseline/pairCoV. The paper's §2.3 claim is that >52% of
// 2-site combinations improve cov by >50% (improvement factor >= 2).
type PairImprovement struct {
	A, B string
	// BaselineCoV is the higher of the two individual covs.
	BaselineCoV float64
	// PairCoV is the cov of the summed power.
	PairCoV float64
}

// Improvement returns BaselineCoV / PairCoV (higher is better).
func (p PairImprovement) Improvement() float64 {
	if p.PairCoV == 0 {
		return math.Inf(1)
	}
	return p.BaselineCoV / p.PairCoV
}

// AllPairs evaluates every unordered pair of sites.
func AllPairs(names []string, powers []trace.Series) ([]PairImprovement, error) {
	if len(names) != len(powers) {
		return nil, fmt.Errorf("energy: %d names for %d series", len(names), len(powers))
	}
	var out []PairImprovement
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			sum, err := trace.Add(powers[i], powers[j])
			if err != nil {
				return nil, err
			}
			ci := stats.CoV(powers[i].Values)
			cj := stats.CoV(powers[j].Values)
			out = append(out, PairImprovement{
				A:           names[i],
				B:           names[j],
				BaselineCoV: math.Max(ci, cj),
				PairCoV:     stats.CoV(sum.Values),
			})
		}
	}
	return out, nil
}

// FractionImproved returns the fraction of pairs whose combined cov beats
// the best single-site cov by at least the given factor (e.g. factor 2 means
// "improved cov by > 50%", the paper's phrasing).
func FractionImproved(pairs []PairImprovement, factor float64) float64 {
	if len(pairs) == 0 {
		return 0
	}
	n := 0
	for _, p := range pairs {
		if p.Improvement() >= factor {
			n++
		}
	}
	return float64(n) / float64(len(pairs))
}

// BestWindow slides a window of the given length over the summed power of a
// site combination and returns the start index (in samples) of the window
// with the highest stable-energy fraction, together with that fraction. This
// mirrors the paper's methodology of *searching* for complementary groups of
// sites over 3-day intervals (§2.3): the showcase in Fig 3 is the best such
// window, not an average one.
func BestWindow(powers []trace.Series, window time.Duration) (int, float64, error) {
	sum, err := trace.Sum(powers...)
	if err != nil {
		return 0, 0, err
	}
	k := int(window / sum.Step)
	if k <= 0 || k > sum.Len() {
		return 0, 0, trace.ErrBadWindow
	}
	bestIdx, bestFrac := 0, -1.0
	// Slide in quarter-window hops: enough resolution to find the showcase
	// window without quadratic cost.
	hop := k / 4
	if hop == 0 {
		hop = 1
	}
	consider := func(i int) error {
		w := sum.Slice(i, i+k)
		split, err := StableVariableSplit(w, window)
		if err != nil {
			return err
		}
		if f := split.StableFraction(); f > bestFrac {
			bestFrac, bestIdx = f, i
		}
		return nil
	}
	last := sum.Len() - k
	for i := 0; i <= last; i += hop {
		if err := consider(i); err != nil {
			return 0, 0, err
		}
	}
	// When the series length is not hop-aligned the stride stops short of
	// the final valid start; evaluate it explicitly so the trailing samples
	// are never excluded from the search.
	if last%hop != 0 {
		if err := consider(last); err != nil {
			return 0, 0, err
		}
	}
	return bestIdx, bestFrac, nil
}

// TopUp is the result of purchasing a limited amount of reliable grid energy
// to raise the guaranteed power floor of a multi-VB combination (§2.3,
// "Would using a small reliable energy source alongside help?").
type TopUp struct {
	// FloorMW is the new guaranteed power level.
	FloorMW float64
	// PurchasedMWh is the grid energy bought to fill gaps below the floor.
	PurchasedMWh float64
	// StabilizedMWh is previously-variable produced energy that the floor
	// raise converts into stable energy.
	StabilizedMWh float64
	// AddedStableMWh is the total gain in stable energy
	// (purchased + stabilized).
	AddedStableMWh float64
}

// PlanTopUp finds the highest power floor sustainable by purchasing at most
// budgetMWh of grid energy over the series, via binary search on the floor.
// Raising the floor from min(power) to F costs sum(max(0, F-p(t)))*dt
// purchased energy and stabilizes the produced energy between the old and
// new floors.
func PlanTopUp(power trace.Series, budgetMWh float64) (TopUp, error) {
	if power.IsEmpty() {
		return TopUp{}, trace.ErrEmptySeries
	}
	if budgetMWh < 0 {
		return TopUp{}, fmt.Errorf("energy: negative budget %v", budgetMWh)
	}
	dt := power.Step.Hours()
	cost := func(floor float64) float64 {
		var mwh float64
		for _, p := range power.Values {
			if p < floor {
				mwh += (floor - p) * dt
			}
		}
		return mwh
	}
	lo, hi := power.Min(), power.Max()
	// The budget may be enough to exceed even the maximum: extend hi until
	// unaffordable, then binary search.
	for cost(hi) <= budgetMWh {
		if hi == 0 {
			hi = 1
		}
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if cost(mid) <= budgetMWh {
			lo = mid
		} else {
			hi = mid
		}
	}
	floor := lo
	purchased := cost(floor)
	oldFloor := power.Min()
	hours := power.Duration().Hours()
	addedStable := (floor - oldFloor) * hours
	return TopUp{
		FloorMW:        floor,
		PurchasedMWh:   purchased,
		StabilizedMWh:  addedStable - purchased,
		AddedStableMWh: addedStable,
	}, nil
}

// EuropeanTrio returns the paper's Fig 3 example: Norwegian solar
// complemented by UK and Portuguese wind, the first three EuropeanFleet
// sites.
func EuropeanTrio() []SiteConfig { return EuropeanFleet(3) }

// EuropeanFleet returns a larger mixed solar/wind fleet spread across
// Europe, standing in for the EMHIRES multi-site dataset. n is clamped to
// the available template list (currently 12 sites).
func EuropeanFleet(n int) []SiteConfig {
	templates := []SiteConfig{
		{Name: "NO-solar", Source: Solar, Latitude: 59.9, Longitude: 10.7},
		{Name: "UK-wind", Source: Wind, Latitude: 53.5, Longitude: -1.5},
		{Name: "PT-wind", Source: Wind, Latitude: 39.5, Longitude: -8.0},
		{Name: "BE-solar", Source: Solar, Latitude: 50.8, Longitude: 4.4},
		{Name: "BE-wind", Source: Wind, Latitude: 51.2, Longitude: 2.9},
		{Name: "DE-solar", Source: Solar, Latitude: 48.1, Longitude: 11.6},
		{Name: "DE-wind", Source: Wind, Latitude: 54.3, Longitude: 8.6},
		{Name: "ES-solar", Source: Solar, Latitude: 37.4, Longitude: -5.9},
		{Name: "FR-wind", Source: Wind, Latitude: 48.6, Longitude: -4.3},
		{Name: "IT-solar", Source: Solar, Latitude: 41.9, Longitude: 12.5},
		{Name: "DK-wind", Source: Wind, Latitude: 56.0, Longitude: 9.0},
		{Name: "GR-solar", Source: Solar, Latitude: 37.9, Longitude: 23.7},
	}
	if n <= 0 || n > len(templates) {
		n = len(templates)
	}
	out := make([]SiteConfig, n)
	copy(out, templates[:n])
	for i := range out {
		out[i].CapacityMW = DefaultCapacityMW
	}
	return out
}
