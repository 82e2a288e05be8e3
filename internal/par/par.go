// Package par is the simulation stack's deterministic fan-out primitive.
//
// Every parallel path in the repository — per-site trace generation, the
// experiment sweeps, the figure/table runner — is built on ForEach or Map,
// which give:
//
//   - ordered results: Map writes result i to slot i, so output is
//     independent of goroutine scheduling;
//   - first-error semantics: the error of the lowest-indexed failing task is
//     returned, every task below it runs, and tasks above it may be
//     skipped;
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
// task, or ctx.Err() when the context is cancelled first. Workers claim
// indices in order, and a worker runs every index it claims below the
// lowest failing index so far, so every task below the reported one runs
// and the result does not depend on timing. Unstarted tasks above the
// lowest failing index are skipped, and so is every unstarted task once
// ctx is cancelled. With one worker it runs inline on the calling
// goroutine.
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

	var (
		next     atomic.Int64 // next task index to claim
		failed   atomic.Int64 // index of the lowest failing task so far, or n
		mu       sync.Mutex   // guards firstErr and lowering failed
		firstErr error
		wg       sync.WaitGroup
	)
	failed.Store(int64(n))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Every index below a failing one was claimed before it,
				// so a claim above the lowest failure ends the worker's
				// share without skipping a task the result depends on.
				i := next.Add(1) - 1
				if i >= int64(n) || i > failed.Load() || ctx.Err() != nil {
					return
				}
				if err := fn(int(i)); err != nil {
					mu.Lock()
					if i < failed.Load() {
						failed.Store(i)
						firstErr = err
					}
					mu.Unlock()
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
