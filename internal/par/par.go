package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultGrain is the smallest amount of work a worker grabs at once in
// dynamically scheduled loops. Chosen so that the atomic fetch-add that
// hands out chunks is amortized over a few microseconds of work.
const DefaultGrain = 1024

// Workers normalizes a requested worker count: values <= 0 mean
// runtime.GOMAXPROCS(0), everything else is returned unchanged.
func Workers(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// parallelShare is the number of input elements each worker of an auto
// worker count is given (see WorkersFor). Below two shares a second worker
// mostly costs more CPU than the wall time it saves: it joins each phase
// late, and its cross-core misses slow the loops it shares. Set from
// BenchmarkLLPBoruvkaSizes (EXPERIMENTS "One worker below the share").
const parallelShare = 1 << 19

// WorkersFor resolves a requested worker count for an input of work
// elements (n+m for a graph, m for an edge list). An explicit p > 0 is
// returned unchanged. p <= 0 ("auto") gives one worker per parallelShare
// elements, clamped to [1, runtime.GOMAXPROCS(0)].
func WorkersFor(p, work int) int {
	if p > 0 {
		return p
	}
	return max(1, min(runtime.GOMAXPROCS(0), work/parallelShare))
}

// For runs body over the index range [0, n) using p workers. The range is
// handed out in chunks of size grain (DefaultGrain if grain <= 0) through a
// shared atomic counter, which gives dynamic load balancing for irregular
// work such as graph traversals. body must be safe to call concurrently on
// disjoint ranges.
func For(p, n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p = Workers(p)
	if grain <= 0 {
		grain = DefaultGrain
	}
	if p == 1 || n <= grain {
		body(0, n)
		return
	}
	if max := (n + grain - 1) / grain; p > max {
		p = max
	}
	var next atomic.Int64
	var panics PanicBox
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			cur := -1
			defer wg.Done()
			defer func() { panics.Capture(recover(), cur) }()
			for {
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				cur = lo
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
	// A worker panic is re-raised here, on the caller, only after every
	// worker has exited (a panicking worker stops; its unclaimed chunks are
	// still processed by the survivors, so non-panicking work completes).
	panics.Rethrow()
}

// ForW is For with the worker's index passed to body: body(w, lo, hi) may
// use w (in [0, p)) to select per-worker state — an attributed collector
// shard, a padded counter cell — without any further coordination. The
// sequential fast path passes w = 0. Chunk scheduling is identical to For.
func ForW(p, n, grain int, body func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	p = Workers(p)
	if grain <= 0 {
		grain = DefaultGrain
	}
	if p == 1 || n <= grain {
		body(0, 0, n)
		return
	}
	if max := (n + grain - 1) / grain; p > max {
		p = max
	}
	var next atomic.Int64
	var panics PanicBox
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(self int) {
			cur := -1
			defer wg.Done()
			defer func() { panics.Capture(recover(), cur) }()
			for {
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				cur = lo
				body(self, lo, hi)
			}
		}(w)
	}
	wg.Wait()
	panics.Rethrow()
}

// ForEach runs body(i) for every i in [0, n) using p workers. Convenience
// wrapper over For for element-wise loops. The sequential cases loop inline
// rather than going through For, so they allocate nothing (no wrapper
// closure) — algorithms calling ForEach once per round rely on this.
func ForEach(p, n, grain int, body func(i int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	if Workers(p) == 1 || n <= grain {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	For(p, n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Do runs the given thunks concurrently on up to p workers and waits for all
// of them. Used for small fixed fan-outs (e.g. sorting halves).
func Do(p int, thunks ...func()) {
	p = Workers(p)
	if p == 1 || len(thunks) == 1 {
		for _, t := range thunks {
			t()
		}
		return
	}
	var panics PanicBox
	var wg sync.WaitGroup
	sem := make(chan struct{}, p)
	for i, t := range thunks {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, f func()) {
			defer func() { <-sem; wg.Done() }()
			defer func() { panics.Capture(recover(), i) }()
			f()
		}(i, t)
	}
	wg.Wait()
	panics.Rethrow()
}
