package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// csvTimeLayout is the timestamp format used in CSV interchange. It prints
// whole seconds exactly as RFC 3339 does and keeps any sub-second part, so
// every time a series can hold survives a write→read round trip.
const csvTimeLayout = time.RFC3339Nano

// WriteCSV writes one or more series sharing the same time base as a CSV
// table with a "time" column followed by one column per series, using the
// given column names. All series must be compatible (same step and length).
func WriteCSV(w io.Writer, names []string, series ...Series) error {
	if len(names) != len(series) {
		return fmt.Errorf("trace: %d names for %d series", len(names), len(series))
	}
	if len(series) == 0 {
		return ErrEmptySeries
	}
	base := series[0]
	for _, s := range series[1:] {
		if err := compatible(base, s); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	header := append([]string{"time"}, names...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(series)+1)
	for i := 0; i < base.Len(); i++ {
		row[0] = base.TimeAt(i).Format(csvTimeLayout)
		for j, s := range series {
			row[j+1] = strconv.FormatFloat(s.Values[i], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a CSV table written by WriteCSV, returning the column names
// and the series. The step is inferred from the first two timestamps, and
// every row's time must equal start + (row-1)·step: a missing, repeated or
// out-of-order sample is an error naming the row, not a silent shift of
// every later sample. A single-row table yields series with zero Step.
func ReadCSV(r io.Reader) ([]string, []Series, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, nil, err
	}
	if len(records) < 2 {
		return nil, nil, fmt.Errorf("trace: CSV has no data rows")
	}
	header := records[0]
	if len(header) < 2 || header[0] != "time" {
		return nil, nil, fmt.Errorf("trace: CSV header must start with \"time\"")
	}
	names := header[1:]
	n := len(records) - 1
	start, err := time.Parse(csvTimeLayout, records[1][0])
	if err != nil {
		return nil, nil, fmt.Errorf("trace: row 1: bad timestamp %q: %w", records[1][0], err)
	}
	var step time.Duration
	if n > 1 {
		second, err := time.Parse(csvTimeLayout, records[2][0])
		if err != nil {
			return nil, nil, fmt.Errorf("trace: row 2: bad timestamp %q: %w", records[2][0], err)
		}
		step = second.Sub(start)
		if step <= 0 {
			return nil, nil, ErrBadStep
		}
		// The whole table must fit one Duration from start, and its last
		// time must still print as a four-digit year in start's zone.
		if time.Duration(n-1) > math.MaxInt64/step {
			return nil, nil, fmt.Errorf("trace: %d rows of step %v overflow the time range", n, step)
		}
		if end := start.Add(time.Duration(n-1) * step); end.Year() > 9999 {
			return nil, nil, fmt.Errorf("trace: last row time %s is past year 9999", end.Format(csvTimeLayout))
		}
	}
	series := make([]Series, len(names))
	for j := range series {
		series[j] = New(start, step, n)
	}
	for i := 1; i < len(records); i++ {
		rec := records[i]
		if len(rec) != len(header) {
			return nil, nil, fmt.Errorf("trace: row %d has %d fields, want %d", i, len(rec), len(header))
		}
		at, err := time.Parse(csvTimeLayout, rec[0])
		if err != nil {
			return nil, nil, fmt.Errorf("trace: row %d: bad timestamp %q: %w", i, rec[0], err)
		}
		if want := series[0].TimeAt(i - 1); !at.Equal(want) {
			return nil, nil, fmt.Errorf("trace: row %d: time %s, want %s (start + %d·%v)",
				i, rec[0], want.Format(csvTimeLayout), i-1, step)
		}
		for j := range names {
			v, err := strconv.ParseFloat(rec[j+1], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("trace: row %d col %s: %w", i, names[j], err)
			}
			series[j].Values[i-1] = v
		}
	}
	return names, series, nil
}
