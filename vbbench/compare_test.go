package main

import "testing"

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudge(t *testing.T) {
	wall := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	base := []float64{1.00, 1.02, 0.99, 1.01, 1.00, 0.98, 1.03, 1.01, 0.99, 1.00}
	noisy := []float64{1.0, 1.5, 0.7, 1.2, 0.9, 1.4, 0.6, 1.1, 1.3, 0.8}
	cases := []struct {
		name       string
		def        metricDef
		base, head []float64
		want       string
	}{
		{"clear gain", wall, base, scaled(base, 0.9), resultGain},
		{"gain on a higher-is-better metric", metricDef{Name: "hits", Better: "higher", Bound: 0.1},
			base, scaled(base, 1.2), resultGain},
		{"too few pairs for a gain", wall, base[:9], scaled(base[:9], 0.9), resultHolds},
		{"eight wins of ten is no gain",
			wall, base, append(scaled(base[:8], 0.9), base[8]*1.01, base[9]*1.01), resultHolds},
		{"gap inside the parent's spread is no gain",
			wall, base, scaled(base, 0.995), resultHolds},
		{"within bound", wall, base, scaled(base, 1.05), resultHolds},
		{"regression beyond bound", wall, base, scaled(base, 1.2), resultRegression},
		{"spread wider than bound", wall, noisy, scaled(noisy, 1.01), resultUnresolved},
		{"wide spread but every change run better", wall, noisy, scaled(noisy, 0.3), resultGain},
	}
	for _, c := range cases {
		if got := judge(c.def, c.base, c.head); got.Result != c.want {
			t.Errorf("%s: got %s (wins %d/%d, medians %v → %v), want %s",
				c.name, got.Result, got.Wins, got.Pairs, got.BaseMed, got.HeadMed, c.want)
		}
	}
}
