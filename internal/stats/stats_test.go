package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestCoV(t *testing.T) {
	if got := CoV([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEq(got, 0.4, 1e-12) {
		t.Errorf("CoV = %v, want 0.4", got)
	}
	if got := CoV([]float64{5, 5, 5}); got != 0 {
		t.Errorf("constant CoV = %v, want 0", got)
	}
	if got := CoV([]float64{-1, 1}); !math.IsInf(got, 1) {
		t.Errorf("zero-mean CoV = %v, want +Inf", got)
	}
	if got := CoV([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero CoV = %v, want 0", got)
	}
	// CoV uses |mean| so negative series behave like positive ones.
	if got := CoV([]float64{-2, -4, -4, -4, -5, -5, -7, -9}); !almostEq(got, 0.4, 1e-12) {
		t.Errorf("negative CoV = %v, want 0.4", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40}, {40, 29},
	}
	for _, c := range cases {
		got, err := Quantiles(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got[0], c.want, 1e-9) {
			t.Errorf("P%v = %v, want %v", c.p, got[0], c.want)
		}
	}
	if _, err := Quantiles(xs, 101); err == nil {
		t.Error("out of range should error")
	}
	if got, _ := Quantiles([]float64{7}, 99); got[0] != 7 {
		t.Errorf("singleton percentile = %v", got[0])
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	qs, err := Quantiles(xs, 0, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if qs[0] != 1 || qs[1] != 3 || qs[2] != 5 {
		t.Errorf("Quantiles = %v", qs)
	}
	if _, err := Quantiles(nil, 50); err == nil {
		t.Error("empty should error")
	}
	if _, err := Quantiles(xs, -5); err == nil {
		t.Error("bad percentile should error")
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Total != 15 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("empty should error")
	}
}

func TestCDF(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 4 {
		t.Errorf("N = %d", c.N())
	}
	if got := c.P(0); got != 0 {
		t.Errorf("P(0) = %v", got)
	}
	if got := c.P(2); got != 0.75 {
		t.Errorf("P(2) = %v, want 0.75", got)
	}
	if got := c.P(10); got != 1 {
		t.Errorf("P(10) = %v, want 1", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := c.Quantile(1); got != 3 {
		t.Errorf("Quantile(1) = %v", got)
	}
	if got := c.Quantile(-1); got != 1 {
		t.Errorf("Quantile(-1) should clamp, got %v", got)
	}
	if got := c.Quantile(2); got != 3 {
		t.Errorf("Quantile(2) should clamp, got %v", got)
	}
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points = %d", len(pts))
	}
	if pts[0].X != 1 || pts[4].X != 3 || pts[4].Y != 1 {
		t.Errorf("Points = %v", pts)
	}
	if got := c.Points(1); len(got) != 2 {
		t.Errorf("Points(1) should clamp to 2, got %d", len(got))
	}
	if _, err := NewCDF(nil); err == nil {
		t.Error("empty should error")
	}
}

func TestCDFMonotone(t *testing.T) {
	c, _ := NewCDF([]float64{5, 1, 9, 3, 3, 7})
	prev := -1.0
	for x := 0.0; x <= 10; x += 0.25 {
		p := c.P(x)
		if p < prev {
			t.Fatalf("CDF not monotone at %v: %v < %v", x, p, prev)
		}
		prev = p
	}
}

func TestMAPE(t *testing.T) {
	actual := []float64{100, 200, 0, 50}
	forecast := []float64{110, 180, 5, 50}
	// Zero actual excluded; errors are 10%, 10%, 0% -> 6.666%.
	got, err := MAPE(forecast, actual, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 20.0/3, 1e-9) {
		t.Errorf("MAPE = %v, want %v", got, 20.0/3)
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}, 0); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := MAPE([]float64{1}, []float64{0}, 1e-9); err == nil {
		t.Error("all-zero actual should error")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Errorf("perfect correlation = %v", r)
	}
	neg := []float64{8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v", r)
	}
	r, _ = Pearson(xs, []float64{5, 5, 5, 5})
	if r != 0 {
		t.Errorf("zero-variance correlation = %v", r)
	}
	if _, err := Pearson(xs, ys[:2]); err == nil {
		t.Error("mismatch should error")
	}
	if _, err := Pearson(nil, nil); err == nil {
		t.Error("empty should error")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(4, 2) != 2 {
		t.Error("Ratio(4,2)")
	}
	if !math.IsInf(Ratio(1, 0), 1) {
		t.Error("Ratio(1,0) should be +Inf")
	}
	if Ratio(0, 0) != 1 {
		t.Error("Ratio(0,0) should be 1")
	}
}

// Property: percentiles are monotone in p.
func TestPropPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
		}
		p1 := float64(a) / 255 * 100
		p2 := float64(b) / 255 * 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v, err := Quantiles(xs, p1, p2)
		return err == nil && v[0] <= v[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: CDF.P(Quantile(q)) >= q for all q.
func TestPropCDFQuantileInverse(t *testing.T) {
	f := func(raw []float64, q8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
		}
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		q := float64(q8) / 255
		// With linear interpolation the quantile can fall strictly between
		// two order statistics, so P can be up to 1/n below q.
		return c.P(c.Quantile(q)) >= q-1.0/float64(c.N())-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKolmogorovSmirnov(t *testing.T) {
	same := []float64{1, 2, 3, 4, 5}
	d, err := KolmogorovSmirnov(same, same)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("KS of identical samples = %v, want 0", d)
	}
	// Disjoint supports: KS = 1.
	d, err = KolmogorovSmirnov([]float64{0, 1, 2}, []float64{10, 11, 12})
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("KS of disjoint samples = %v, want 1", d)
	}
	// Half-overlapping: strictly between.
	d, err = KolmogorovSmirnov([]float64{1, 2, 3, 4}, []float64{3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d >= 1 {
		t.Errorf("KS = %v, want in (0,1)", d)
	}
	if _, err := KolmogorovSmirnov(nil, same); err == nil {
		t.Error("empty sample should error")
	}
}

// Property: KS is symmetric and bounded in [0, 1].
func TestPropKSSymmetricBounded(t *testing.T) {
	f := func(rawA, rawB []float64) bool {
		if len(rawA) == 0 || len(rawB) == 0 {
			return true
		}
		clean := func(raw []float64) []float64 {
			out := make([]float64, len(raw))
			for i, v := range raw {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				out[i] = v
			}
			return out
		}
		a, b := clean(rawA), clean(rawB)
		d1, err1 := KolmogorovSmirnov(a, b)
		d2, err2 := KolmogorovSmirnov(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return d1 >= 0 && d1 <= 1 && math.Abs(d1-d2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
