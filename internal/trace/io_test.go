package trace

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestCSVRoundTrip(t *testing.T) {
	a := mkSeries(0.5, 0.25, 0.125)
	b := mkSeries(1, 2, 3)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []string{"solar", "wind"}, a, b); err != nil {
		t.Fatal(err)
	}
	names, got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "solar" || names[1] != "wind" {
		t.Fatalf("names = %v", names)
	}
	if got[0].Step != 15*time.Minute {
		t.Errorf("step = %v", got[0].Step)
	}
	if !got[0].Start.Equal(t0) {
		t.Errorf("start = %v", got[0].Start)
	}
	for i := range a.Values {
		if got[0].Values[i] != a.Values[i] || got[1].Values[i] != b.Values[i] {
			t.Fatalf("values mismatch at %d: %v %v", i, got[0].Values, got[1].Values)
		}
	}
}

func TestWriteCSVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []string{"a"}, mkSeries(1), mkSeries(2)); err == nil {
		t.Error("name/series count mismatch should error")
	}
	if err := WriteCSV(&buf, nil); err == nil {
		t.Error("no series should error")
	}
	if err := WriteCSV(&buf, []string{"a", "b"}, mkSeries(1, 2), FromValues(t0, time.Hour, []float64{1, 2})); err == nil {
		t.Error("incompatible series should error")
	}
}

func TestReadCSVErrors(t *testing.T) {
	const grid = "time,a\n2020-01-01T00:00:00Z,1\n2020-01-01T06:00:00Z,2\n"
	cases := []struct {
		in, want string // want: a substring of the error, when it matters
	}{
		{"", ""},
		{"time,a\n", ""},
		{"x,a\n2020-01-01T00:00:00Z,1\n2020-01-01T01:00:00Z,2\n", ""},
		{"time,a\nnot-a-time,1\nnot-a-time,2\n", ""},
		{"time,a\n2020-01-01T00:00:00Z,xyz\n2020-01-01T01:00:00Z,2\n", ""},
		{"time,a\n2020-01-01T01:00:00Z,1\n2020-01-01T00:00:00Z,2\n", ""}, // negative step
		// Rows after the second must sit on the 6 h grid the first two set.
		{grid + "2020-01-02T12:00:00Z,3\n", "row 3: time 2020-01-02T12:00:00Z, want 2020-01-01T12:00:00Z"}, // a day late
		{grid + "2020-01-01T03:00:00Z,3\n", "row 3: time 2020-01-01T03:00:00Z, want 2020-01-01T12:00:00Z"}, // out of order
		{grid + "not-a-time,3\n", `row 3: bad timestamp "not-a-time"`},
		// Times WriteCSV could not print back: a span past one Duration,
		// and a last row past year 9999 in the first row's zone.
		{"time,a\n5000-01-01T00:00:00Z,1\n5200-01-01T00:00:00Z,2\n5400-01-01T00:00:00Z,3\n", "overflow the time range"},
		{"time,a\n9999-12-31T00:00:00+23:00,1\n9999-12-31T23:00:00-23:00,2\n", "past year 9999"},
	}
	for i, c := range cases {
		_, _, err := ReadCSV(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("case %d: expected error", i)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q does not contain %q", i, err, c.want)
		}
	}
}

// FuzzReadCSV checks the CSV decoder on arbitrary bytes: it must return an
// error or series that survive a WriteCSV → ReadCSV round trip bit for bit,
// and it must never panic.
func FuzzReadCSV(f *testing.F) {
	seed := func(names []string, series ...Series) {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, names, series...); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed([]string{"solar", "wind"}, mkSeries(0.5, 0.25, 0.125), mkSeries(1, 2, 3))
	seed([]string{"a"}, mkSeries(7))
	seed([]string{"odd, \"quoted\"\nname"}, FromValues(t0.In(time.FixedZone("", 3600)), 1500*time.Millisecond,
		[]float64{math.Inf(1), math.Copysign(0, -1), 1e-300}))
	f.Fuzz(func(t *testing.T, data []byte) {
		names, series, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, names, series...); err != nil {
			t.Fatalf("decoded table does not write back: %v", err)
		}
		names2, series2, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("written table does not read back: %v\n%s", err, buf.Bytes())
		}
		if !slices.Equal(names, names2) || len(series) != len(series2) {
			t.Fatalf("columns %q became %q", names, names2)
		}
		for j, s := range series {
			s2 := series2[j]
			if !s.Start.Equal(s2.Start) || s.Step != s2.Step || s.Len() != s2.Len() {
				t.Fatalf("column %d: time base %v/%v/%d became %v/%v/%d",
					j, s.Start, s.Step, s.Len(), s2.Start, s2.Step, s2.Len())
			}
			for i, v := range s.Values {
				if math.Float64bits(v) != math.Float64bits(s2.Values[i]) {
					t.Fatalf("column %d row %d: %v became %v", j, i+1, v, s2.Values[i])
				}
			}
		}
	})
}
