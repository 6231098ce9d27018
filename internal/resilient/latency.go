package resilient

import (
	"math/bits"
	"sync"
	"time"

	"llpmst/internal/mst"
)

// latencyTracker learns per-algorithm latency profiles keyed by graph-shape
// bucket (log2 of n and of m, so one bucket spans a factor-of-two band of
// each; see sizeBucket). For each (algorithm, bucket) cell it maintains an
// exponentially weighted moving average of the latency and of its
// absolute deviation — a cheap, O(1)-memory stand-in for a tail quantile:
// mean + k·dev tracks a high percentile of well-behaved latency
// distributions and adapts when an algorithm's profile shifts. The hedged runner uses it twice: to order the
// portfolio (fastest learned algorithm first) and to pick the hedge delay
// (fire the backup when the primary exceeds its learned tail).
type latencyTracker struct {
	mu    sync.Mutex
	cells map[latKey]*latCell
}

type latKey struct {
	alg    mst.Algorithm
	bucket int
}

type latCell struct {
	mean float64 // EWMA of latency (ns)
	dev  float64 // EWMA of |sample - mean| (ns)
	n    int64   // samples observed
}

// ewmaAlpha is the smoothing factor: ~the last 8 samples dominate, so the
// tracker follows workload shifts within a few requests.
const ewmaAlpha = 0.25

// devMultiplier scales the learned deviation into the tail estimate:
// mean + 4·dev sits near p99 for exponential-ish service times.
const devMultiplier = 4.0

func newLatencyTracker() *latencyTracker {
	return &latencyTracker{cells: make(map[latKey]*latCell)}
}

// sizeBucket buckets a graph by its shape, (bits.Len(n), bits.Len(m)),
// packed into one int. Keying n and m apart keeps graphs of about one n+m
// but different density in separate cells: a road grid (n = 2^16,
// m ≈ 1.2n) and an ER graph (n = 2^14, m = 2^17) have nearly equal n+m,
// the road grid solves slower, and a shared cell would set its hedge
// delay from the faster graph's samples.
func sizeBucket(g sized) int {
	return bits.Len(uint(g.NumVertices()))<<8 | bits.Len(uint(g.NumEdges()))
}

// sized is the fragment of graph.CSR the tracker needs (kept tiny for
// tests).
type sized interface {
	NumVertices() int
	NumEdges() int
}

// observe records one successful solve's latency.
func (t *latencyTracker) observe(alg mst.Algorithm, bucket int, d time.Duration) {
	t.record(alg, bucket, d, false)
}

// observeLowerBound records the elapsed time of a primary leg cancelled
// because its backup won: its latency is at least d. An empty cell starts
// from d; otherwise d counts only when it exceeds the mean, so a bound can
// raise the estimate but never lower it. Without it, a primary that always
// loses its race is never measured, and pick never swaps it out.
func (t *latencyTracker) observeLowerBound(alg mst.Algorithm, bucket int, d time.Duration) {
	t.record(alg, bucket, d, true)
}

func (t *latencyTracker) record(alg mst.Algorithm, bucket int, d time.Duration, lowerBound bool) {
	ns := float64(d)
	if ns < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := latKey{alg, bucket}
	c := t.cells[k]
	if c == nil {
		c = &latCell{mean: ns}
		t.cells[k] = c
	} else if lowerBound && ns <= c.mean {
		return
	}
	diff := ns - c.mean
	c.mean += ewmaAlpha * diff
	if diff < 0 {
		diff = -diff
	}
	c.dev += ewmaAlpha * (diff - c.dev)
	c.n++
}

// tail returns the learned tail-latency estimate (mean + k·dev) for the
// cell, and whether enough samples exist to trust it.
func (t *latencyTracker) tail(alg mst.Algorithm, bucket int) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cells[latKey{alg, bucket}]
	if c == nil || c.n < 3 {
		return 0, false
	}
	return time.Duration(c.mean + devMultiplier*c.dev), true
}

// mean returns the learned mean latency for the cell, and whether any
// samples exist.
func (t *latencyTracker) mean(alg mst.Algorithm, bucket int) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cells[latKey{alg, bucket}]
	if c == nil || c.n == 0 {
		return 0, false
	}
	return time.Duration(c.mean), true
}

// hedgeDelay converts the learned tail for (alg, bucket) into a hedge
// delay clamped to [floor, ceil]. Before the tracker has data it returns
// floor — hedging eagerly while cold costs some duplicate work but bounds
// tail latency from the first request.
func (t *latencyTracker) hedgeDelay(alg mst.Algorithm, bucket int, floor, ceil time.Duration) time.Duration {
	d, ok := t.tail(alg, bucket)
	if !ok || d < floor {
		return floor
	}
	if ceil > 0 && d > ceil {
		return ceil
	}
	return d
}
