package trace

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2020, 5, 3, 0, 0, 0, 0, time.UTC)

func mkSeries(vals ...float64) Series {
	return FromValues(t0, 15*time.Minute, vals)
}

func TestNewZeroFilled(t *testing.T) {
	s := New(t0, time.Hour, 5)
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	for i, v := range s.Values {
		if v != 0 {
			t.Errorf("Values[%d] = %v, want 0", i, v)
		}
	}
}

func TestEndAndDuration(t *testing.T) {
	s := New(t0, time.Hour, 24)
	if got, want := s.End(), t0.Add(24*time.Hour); !got.Equal(want) {
		t.Errorf("End = %v, want %v", got, want)
	}
	if got := s.Duration(); got != 24*time.Hour {
		t.Errorf("Duration = %v, want 24h", got)
	}
}

func TestTimeAtIndexAtRoundTrip(t *testing.T) {
	s := New(t0, 15*time.Minute, 96)
	for i := 0; i < s.Len(); i++ {
		if got := s.IndexAt(s.TimeAt(i)); got != i {
			t.Fatalf("IndexAt(TimeAt(%d)) = %d", i, got)
		}
	}
}

func TestIndexAtOutOfRange(t *testing.T) {
	s := New(t0, time.Hour, 4)
	if got := s.IndexAt(t0.Add(-time.Second)); got != -1 {
		t.Errorf("before start: got %d, want -1", got)
	}
	if got := s.IndexAt(t0.Add(4 * time.Hour)); got != -1 {
		t.Errorf("at end: got %d, want -1", got)
	}
	var empty Series
	if got := empty.IndexAt(t0); got != -1 {
		t.Errorf("empty: got %d, want -1", got)
	}
}

func TestAt(t *testing.T) {
	s := mkSeries(1, 2, 3)
	v, ok := s.At(t0.Add(16 * time.Minute))
	if !ok || v != 2 {
		t.Errorf("At = %v,%v want 2,true", v, ok)
	}
	if _, ok := s.At(t0.Add(-time.Minute)); ok {
		t.Error("At before start should be false")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := mkSeries(1, 2, 3)
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestSliceAndWindow(t *testing.T) {
	s := mkSeries(0, 1, 2, 3, 4, 5, 6, 7)
	sub := s.Slice(2, 5)
	if sub.Len() != 3 || sub.Values[0] != 2 {
		t.Fatalf("Slice = %v", sub.Values)
	}
	if !sub.Start.Equal(t0.Add(30 * time.Minute)) {
		t.Errorf("Slice start = %v", sub.Start)
	}

	w := s.Window(t0.Add(30*time.Minute), t0.Add(75*time.Minute))
	if w.Len() != 3 || w.Values[0] != 2 || w.Values[2] != 4 {
		t.Errorf("Window = %v, want [2 3 4]", w.Values)
	}
	// Clamped bounds.
	w2 := s.Window(t0.Add(-time.Hour), t0.Add(100*time.Hour))
	if w2.Len() != s.Len() {
		t.Errorf("clamped window len = %d, want %d", w2.Len(), s.Len())
	}
	// Fully before the series.
	w3 := s.Window(t0.Add(-2*time.Hour), t0.Add(-time.Hour))
	if w3.Len() != 0 {
		t.Errorf("window before series len = %d, want 0", w3.Len())
	}
}

func TestScaleShiftClampMap(t *testing.T) {
	s := mkSeries(1, -2, 3)
	if got := s.Scale(2).Values; got[1] != -4 {
		t.Errorf("Scale: %v", got)
	}
	if got := s.Shift(10).Values; got[0] != 11 {
		t.Errorf("Shift: %v", got)
	}
	if got := s.Clamp(0, 2).Values; got[1] != 0 || got[2] != 2 {
		t.Errorf("Clamp: %v", got)
	}
}

func TestAddSubSum(t *testing.T) {
	a := mkSeries(1, 2, 3)
	b := mkSeries(10, 20, 30)
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Values[2] != 33 {
		t.Errorf("Add: %v", sum.Values)
	}
	total, err := Sum(a, b, a)
	if err != nil {
		t.Fatal(err)
	}
	if total.Values[1] != 24 {
		t.Errorf("Sum: %v", total.Values)
	}
	if _, err := Sum(); err == nil {
		t.Error("Sum() with no args should error")
	}
}

func TestAddMismatch(t *testing.T) {
	a := mkSeries(1, 2, 3)
	b := FromValues(t0, time.Hour, []float64{1, 2, 3})
	if _, err := Add(a, b); err == nil {
		t.Error("step mismatch should error")
	}
	c := mkSeries(1, 2)
	if _, err := Add(a, c); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestAggregates(t *testing.T) {
	s := mkSeries(2, 8, 5)
	if s.Total() != 15 {
		t.Errorf("Total = %v", s.Total())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 8 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	var empty Series
	if empty.Mean() != 0 {
		t.Errorf("empty Mean = %v", empty.Mean())
	}
	if !math.IsInf(empty.Min(), 1) || !math.IsInf(empty.Max(), -1) {
		t.Error("empty Min/Max should be +/-Inf")
	}
}

func TestEnergy(t *testing.T) {
	// 4 samples of 100 MW at 15-minute step = 100 MWh.
	s := mkSeries(100, 100, 100, 100)
	if got := s.Energy(); math.Abs(got-100) > 1e-9 {
		t.Errorf("Energy = %v, want 100", got)
	}
}

func TestWindowReductions(t *testing.T) {
	s := mkSeries(1, 5, 2, 8, 0, 4, 9, 3) // 8 samples, 15-min -> 4 per hour
	mins, err := s.WindowMin(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if mins.Len() != 2 || mins.Values[0] != 1 || mins.Values[1] != 0 {
		t.Errorf("WindowMin = %v", mins.Values)
	}
	if _, err := s.WindowMin(25 * time.Minute); err == nil {
		t.Error("non-divisible window should error")
	}
	if _, err := mkSeries(1, 2, 3).WindowMin(time.Hour); err == nil {
		t.Error("window not dividing length should error")
	}
}

func TestLag(t *testing.T) {
	s := mkSeries(1, 2, 3, 4)
	d := s.Lag(1) // delayed: [1 1 2 3]
	want := []float64{1, 1, 2, 3}
	for i := range want {
		if d.Values[i] != want[i] {
			t.Fatalf("Lag(1) = %v, want %v", d.Values, want)
		}
	}
	a := s.Lag(-1) // advanced: [2 3 4 4]
	want = []float64{2, 3, 4, 4}
	for i := range want {
		if a.Values[i] != want[i] {
			t.Fatalf("Lag(-1) = %v, want %v", a.Values, want)
		}
	}
	if got := s.Lag(0); got.Values[2] != 3 {
		t.Error("Lag(0) identity")
	}
	var empty Series
	if got := empty.Lag(3); got.Len() != 0 {
		t.Error("empty Lag")
	}
}

func TestFractionZeroAndNonZero(t *testing.T) {
	s := mkSeries(0, 1, 0, 2, 0, 0)
	if got := s.FractionZero(1e-12); math.Abs(got-4.0/6) > 1e-12 {
		t.Errorf("FractionZero = %v", got)
	}
	nz := s.NonZero(1e-12)
	if len(nz) != 2 || nz[0] != 1 || nz[1] != 2 {
		t.Errorf("NonZero = %v", nz)
	}
}

func TestString(t *testing.T) {
	var empty Series
	if empty.String() != "Series(empty)" {
		t.Errorf("empty String = %q", empty.String())
	}
	if s := mkSeries(1, 2).String(); s == "" {
		t.Error("String should be non-empty")
	}
}

// Property: Window(TimeAt(i), TimeAt(j)) == Slice(i, j) for valid i <= j.
func TestPropWindowMatchesSlice(t *testing.T) {
	f := func(n uint8, a, b uint8) bool {
		size := int(n%50) + 2
		vals := make([]float64, size)
		for i := range vals {
			vals[i] = float64(i)
		}
		s := FromValues(t0, 15*time.Minute, vals)
		i, j := int(a)%size, int(b)%size
		if i > j {
			i, j = j, i
		}
		w := s.Window(s.TimeAt(i), s.TimeAt(j))
		sl := s.Slice(i, j)
		if w.Len() != sl.Len() {
			return false
		}
		for k := range w.Values {
			if w.Values[k] != sl.Values[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
