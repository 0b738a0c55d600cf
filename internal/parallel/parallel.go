// Package parallel provides a small bounded worker pool used to fan out
// independent design-point simulations (experiment and parameter sweeps)
// across OS threads.
//
// The pool is deliberately deterministic from the caller's point of view:
// results are collected by index, every index runs even if an earlier one
// fails, and the error returned is always the one with the lowest index.
// That makes workers=1 and workers=N observationally identical for any
// fn whose work items are independent, which the experiment determinism
// regression test relies on.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var defaultWorkers atomic.Int64

// DefaultWorkers returns the pool width used when a caller passes
// workers <= 0. It defaults to GOMAXPROCS and can be overridden once at
// startup via SetDefaultWorkers (the -j flag on the CLIs).
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefaultWorkers overrides the default pool width. n <= 0 restores the
// GOMAXPROCS default.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Resolve clamps an explicit worker count: <= 0 means DefaultWorkers().
func Resolve(workers int) int {
	if workers <= 0 {
		return DefaultWorkers()
	}
	return workers
}

// ForEach runs fn(0..n-1) on a pool of at most workers goroutines and
// returns the error produced by the lowest failing index, or nil. All n
// indices run regardless of failures, so the returned error does not
// depend on scheduling. workers <= 0 uses DefaultWorkers(); workers == 1
// runs inline on the calling goroutine.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
