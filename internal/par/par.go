// Package par contains the small data-parallel loop helpers shared by the
// computation engines. Engines differ in scheduling policy (frontiers,
// worklists, bulk kernels) but all ultimately fan work out over a fixed
// worker pool; this package is that pool.
package par

import (
	"runtime"
	"sync"
)

// DefaultWorkers returns the worker count used when a caller passes 0.
func DefaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	return w
}

// For runs body(i) for every i in [0, n) across workers goroutines,
// dividing the range into contiguous chunks. workers <= 0 means
// DefaultWorkers. It blocks until all iterations complete.
func For(n int, workers int, body func(i int)) {
	Range(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Range runs body(lo, hi) over a contiguous chunking of [0, n). Each worker
// receives exactly one chunk; workers <= 0 means DefaultWorkers. Chunked
// form lets bodies keep per-chunk state (local counters, scratch buffers)
// without false sharing.
func Range(n int, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// RangeWorkers runs body(w, lo, hi) over a contiguous chunking of [0, n),
// with w identifying the worker slot in [0, workers). Unlike Range, the
// worker index lets bodies own per-worker scratch (preallocated buffers,
// local stat counters) across the whole chunk. workers <= 0 means
// DefaultWorkers. The first non-nil error from any body is returned; all
// bodies run to completion regardless.
func RangeWorkers(n int, workers int, body func(w, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		return body(0, 0, n)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
