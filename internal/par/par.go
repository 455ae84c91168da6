// Package par runs the engine's bounded fan-outs. Every goroutine the
// compression and decode paths start is started by ForEach, so the
// concurrency bound, the cancellation rule and the error choice live in
// one place.
package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// ForEach calls fn(ctx, i) for every i in [0, n), with at most workers
// calls running at once; workers <= 0 selects GOMAXPROCS. Calls start in
// index order. None starts once ctx is done or a call has returned an
// error, and calls already running see their ctx cancelled. ForEach
// waits for every started call, then returns the error of the lowest
// index that failed, or ctx.Err() if it stopped before starting all n.
// A context.Canceled that a call returns only because another call
// failed does not count as a failure of its own.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	started := 0
	for ; started < n; started++ {
		select {
		case sem <- struct{}{}:
		case <-inner.Done():
		}
		if inner.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if errs[i] = fn(inner, i); errs[i] != nil {
				cancel()
			}
		}(started)
	}
	wg.Wait()

	var induced error
	for _, err := range errs {
		switch {
		case err == nil:
		case ctx.Err() == nil && errors.Is(err, context.Canceled):
			if induced == nil {
				induced = err
			}
		default:
			return err
		}
	}
	if induced != nil {
		return induced
	}
	if started < n {
		return ctx.Err()
	}
	return nil
}
