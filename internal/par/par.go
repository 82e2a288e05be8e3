// Package par is the simulation stack's deterministic fan-out primitive.
//
// Every parallel path in the repository — per-site trace generation, the
// experiment sweeps, the figure/table runner — is built on ForEach or Map,
// which give:
//
//   - ordered results: Map writes result i to slot i, so output is
//     independent of goroutine scheduling;
//   - first-error semantics: the error of the lowest-indexed failing task is
//     returned and later work is skipped;
//   - context cancellation: a cancelled ctx stops dispatching new tasks;
//   - a worker cap: at most min(GOMAXPROCS, n) tasks run concurrently, so
//     GOMAXPROCS=1 runs every task inline on the calling goroutine.
//
// Determinism contract: callers must make each task's output depend only on
// its index (e.g. independent name-keyed sub-RNGs), never on shared mutable
// state or execution order. Under that contract the parallel output is
// bit-identical to the serial one for any GOMAXPROCS — the property the
// determinism suite in the root package asserts.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) on at most min(GOMAXPROCS, n)
// concurrent goroutines. It returns the error of the lowest-indexed failing
// task, or ctx.Err() when the context is cancelled first; once either
// happens, unstarted tasks are skipped. With one worker it runs inline on
// the calling goroutine.
func ForEach(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	inner, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // next task index to claim
		mu       sync.Mutex
		firstErr error
		errIdx   = n // index of the lowest failing task so far
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if inner.Err() != nil {
					return // a task failed or the caller cancelled: stop claiming
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err() // non-nil only when the *caller's* context was cancelled
}

// Map runs fn for every index in [0, n) under the same scheduling and error
// semantics as ForEach and returns the results in index order. On error the
// partial results are discarded.
func Map[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := ForEach(ctx, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
