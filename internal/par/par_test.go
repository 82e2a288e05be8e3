package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs sets GOMAXPROCS, which caps the worker count, for the rest of
// the test and restores it when the test ends.
func withProcs(t *testing.T, procs int) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestMapOrdered(t *testing.T) {
	for _, procs := range []int{1, 2, 7, 64} {
		withProcs(t, procs)
		out, err := Map(context.Background(), 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("GOMAXPROCS=%d: %d results", procs, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("GOMAXPROCS=%d: out[%d] = %d", procs, i, v)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(procs int) []string {
		withProcs(t, procs)
		out, err := Map(context.Background(), 50, func(i int) (string, error) {
			return fmt.Sprintf("task-%d", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, procs := range []int{2, 4, 16} {
		got := run(procs)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("GOMAXPROCS=%d: result %d differs: %q vs %q", procs, i, got[i], serial[i])
			}
		}
	}
}

func TestForEachFirstError(t *testing.T) {
	errBoom := errors.New("boom")
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		var ran atomic.Int64
		err := ForEach(context.Background(), 1000, func(i int) error {
			ran.Add(1)
			if i == 3 {
				return errBoom
			}
			return nil
		})
		if !errors.Is(err, errBoom) {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want boom", procs, err)
		}
		if n := ran.Load(); n == 1000 {
			t.Errorf("GOMAXPROCS=%d: all %d tasks ran despite early error", procs, n)
		}
	}
}

func TestForEachLowestIndexedErrorWins(t *testing.T) {
	// Both tasks fail; the lower index's error must be reported regardless
	// of which finishes first.
	withProcs(t, 2)
	errLow, errHigh := errors.New("low"), errors.New("high")
	for trial := 0; trial < 20; trial++ {
		err := ForEach(context.Background(), 2, func(i int) error {
			if i == 0 {
				time.Sleep(time.Millisecond)
				return errLow
			}
			return errHigh
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("trial %d: err = %v, want low", trial, err)
		}
	}
}

func TestForEachContextCancel(t *testing.T) {
	withProcs(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEach(ctx, 100, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n > 8 {
		t.Errorf("%d tasks ran after cancellation (worker-count-ish expected)", n)
	}
}

func TestForEachWorkerCap(t *testing.T) {
	withProcs(t, 3)
	var cur, peak atomic.Int64
	err := ForEach(context.Background(), 64, func(i int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrency %d exceeds GOMAXPROCS 3", p)
	}
}

func TestMapErrorDiscardsResults(t *testing.T) {
	withProcs(t, 2)
	out, err := Map(context.Background(), 10, func(i int) (int, error) {
		if i == 5 {
			return 0, errors.New("mid")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if out != nil {
		t.Errorf("partial results returned on error: %v", out)
	}
}

func TestZeroAndNegativeN(t *testing.T) {
	if err := ForEach(context.Background(), 0, func(int) error { return errors.New("no") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
	out, err := Map(context.Background(), -3, func(int) (int, error) { return 0, errors.New("no") })
	if err != nil || out != nil {
		t.Errorf("n=-3: %v %v", out, err)
	}
}
