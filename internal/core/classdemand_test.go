package core

import (
	"math"
	"testing"

	"github.com/vbcloud/vb/internal/workload"
)

func TestAppDemandPauseWeight(t *testing.T) {
	legacy := AppDemand{ID: 1, Cores: 10, StableCores: 7, MemGBPerCore: 2}
	if w := legacy.PauseWeight(); w != 1 {
		t.Errorf("legacy demand weight %v, must be exactly 1", w)
	}
	classed := AppDemand{ID: 2, Cores: 10, StableCores: 8, MemGBPerCore: 2,
		ClassCores: map[workload.Class]float64{
			workload.RealTime:   4,
			workload.Batch:      4,
			workload.Degradable: 2,
		}}
	if err := classed.Validate(); err != nil {
		t.Fatal(err)
	}
	want := (4*workload.RealTime.PauseWeight() + 4*workload.Batch.PauseWeight()) / 8
	if w := classed.PauseWeight(); math.Abs(w-want) > 1e-12 {
		t.Errorf("weight %v, want %v", w, want)
	}
	// All-degradable firm side: weight falls back to 1 (nothing to pause).
	spot := AppDemand{ID: 3, Cores: 5, StableCores: 0, MemGBPerCore: 2,
		ClassCores: map[workload.Class]float64{workload.Degradable: 5}}
	if w := spot.PauseWeight(); w != 1 {
		t.Errorf("all-degradable weight %v, want 1", w)
	}
}

// TestPauseWeightIgnoresMapOrder requires a demand with several firm
// classes to weigh the same bits on every call: the sum in ladder order,
// whatever order the ClassCores map iterates in.
func TestPauseWeightIgnoresMapOrder(t *testing.T) {
	d := AppDemand{ID: 1, Cores: 10, StableCores: 10, MemGBPerCore: 2,
		ClassCores: map[workload.Class]float64{
			workload.RealTime:    0.1,
			workload.Interactive: 0.7,
			workload.Batch:       3.3,
			workload.Stable:      5.9,
		}}
	var wSum, cores float64
	for _, c := range workload.AllClasses {
		if n := d.ClassCores[c]; c.Firm() && n > 0 {
			wSum += c.PauseWeight() * n
			cores += n
		}
	}
	want := wSum / cores
	for i := 0; i < 100; i++ {
		if w := d.PauseWeight(); math.Float64bits(w) != math.Float64bits(want) {
			t.Fatalf("call %d: weight %v (bits %#x), want the ladder-order sum %v (bits %#x)",
				i, w, math.Float64bits(w), want, math.Float64bits(want))
		}
	}
}

func TestAppDemandClassBreakdown(t *testing.T) {
	legacy := AppDemand{ID: 1, Cores: 10, StableCores: 7, MemGBPerCore: 2}
	got := legacy.ClassBreakdown()
	if got[workload.Stable] != 7 || got[workload.Degradable] != 3 || len(got) != 2 {
		t.Errorf("legacy breakdown %v", got)
	}
	allStable := AppDemand{ID: 2, Cores: 4, StableCores: 4, MemGBPerCore: 2}
	if got := allStable.ClassBreakdown(); got[workload.Stable] != 4 || len(got) != 1 {
		t.Errorf("all-stable breakdown %v", got)
	}
	classed := AppDemand{ID: 3, Cores: 6, StableCores: 4, MemGBPerCore: 2,
		ClassCores: map[workload.Class]float64{
			workload.Interactive: 4,
			workload.Degradable:  2,
			workload.Batch:       0,
		}}
	got = classed.ClassBreakdown()
	if got[workload.Interactive] != 4 || got[workload.Degradable] != 2 || len(got) != 2 {
		t.Errorf("classed breakdown %v (zero-core classes must be dropped)", got)
	}
}

func TestAppDemandValidateClassCores(t *testing.T) {
	base := func() AppDemand {
		return AppDemand{ID: 1, Cores: 10, StableCores: 6, MemGBPerCore: 2,
			ClassCores: map[workload.Class]float64{
				workload.RealTime:   2,
				workload.Batch:      4,
				workload.Degradable: 4,
			}}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid classed demand rejected: %v", err)
	}
	bad := []func(*AppDemand){
		func(d *AppDemand) { d.ClassCores[workload.Class(42)] = 0 },
		func(d *AppDemand) { d.ClassCores[workload.Batch] = math.NaN() },
		func(d *AppDemand) { d.ClassCores[workload.Batch] = -1 },
		func(d *AppDemand) { d.ClassCores[workload.Batch] = 5 },      // firm != StableCores
		func(d *AppDemand) { d.ClassCores[workload.Degradable] = 7 }, // total != Cores
	}
	for i, mutate := range bad {
		d := base()
		mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("bad class cores %d accepted", i)
		}
	}
}
