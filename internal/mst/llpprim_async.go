package mst

import (
	"errors"
	"slices"
	"sync/atomic"

	"llpmst/internal/graph"
	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// LLPPrimAsync is Algorithm 5 with the bag R scheduled by the Galois-style
// asynchronous work-stealing executor (internal/sched) instead of
// barrier-synchronized frontier waves: workers pull fixed vertices from R,
// explore their arcs, CAS-fix MWE neighbors and push them straight back
// into the bag — no synchronization between explorations, exactly the
// paper's "the inner loop keeps processing the set R till it becomes
// empty... If R consists of multiple vertices then all of them can be
// explored in parallel". The heap phase between bag quiescences is
// sequential, as in the other variants.
//
// Compared to LLPPrimParallel (frontier waves), the async bag avoids one
// barrier per wave at the cost of per-item queue traffic; the ablation
// benchmark compares the two schedules.
//
// Cancellation via opts.Ctx is polled inside the scheduler at work-item
// granularity and in the sequential heap region; a cancelled run returns
// the partial forest plus a non-nil error. opts.Observer (or a collector
// on opts.Ctx) receives the scheduler's push/pop/steal counters and queue
// depth gauge alongside the heap counters.
//
// A worker panic, returned by the scheduler as a *par.PanicError after all
// workers have joined, is converted into an error with the same
// partial-forest contract: every id written through the atomic cursor is an
// individually sound MSF edge (a CAS-won minimum-weight edge or a
// heap-popped minimum cut edge), so the snapshot taken after the join is a
// subset of the canonical MSF.
func LLPPrimAsync(g *graph.CSR, opts Options) (f *Forest, err error) {
	n := g.NumVertices()
	p := opts.workers(g)
	ws, release := opts.workspace()
	defer release()

	// Concurrent accumulators: chosen tree edges and the staging set Q,
	// claimed by atomic cursor into preallocated arrays.
	ids := ws.idsBuf(n) // at most n-1 tree edges
	var idCursor atomic.Int64
	qbuf := ws.stageBuf(n)
	var qCursor atomic.Int64
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		pe := par.AsPanicError(r, -1)
		chosen := slices.Clone(ids[:idCursor.Load()])
		f = newForest(g, chosen, ws.ids)
		err = panicked(AlgLLPPrimAsync, pe, len(chosen), n-1)
	}()

	mwe := minWeightEdges(p, g)
	earlyFix := !opts.NoEarlyFix
	cc := opts.canceller()
	col := opts.collector()
	defer col.Span("llp-prim-async")()

	fixed := ws.flagsABuf(n) // atomic 0/1
	par.Fill(p, fixed, 0)
	dist := ws.keysBuf(n) // atomic packed keys
	par.FillKeys(p, dist, par.InfKey)
	inQ := ws.flagsBBuf(n) // atomic 0/1
	par.Fill(p, inQ, 0)

	h := ws.heapBuf()
	bag := ws.asyncBagBuf()
	var pushes, pops, stale, heapFixes int64
	var ePushes, ePops, eEarly int64 // counts already streamed to col
	var cycle int64
	step := 0 // work-item index for strided cancellation polls
	// flush streams the not-yet-emitted counter deltas; called once per
	// bag-quiescence cycle (so round-aware collectors see per-cycle early
	// fix vs heap traffic) and from finish. Early fixes are derived: every
	// chosen edge that was not a heap fix was an early CAS fix.
	flush := func() {
		early := idCursor.Load() - heapFixes
		if d := pushes - ePushes; d != 0 {
			col.Count(obs.CtrHeapPush, d)
			ePushes = pushes
		}
		if d := pops - ePops; d != 0 {
			col.Count(obs.CtrHeapPop, d)
			ePops = pops
		}
		if d := early - eEarly; d != 0 {
			col.Count(obs.CtrEarlyFix, d)
			eEarly = early
		}
	}
	finish := func(cancelled bool) (*Forest, error) {
		chosen := slices.Clone(ids[:idCursor.Load()])
		early := idCursor.Load() - heapFixes
		flush()
		if opts.Metrics != nil {
			*opts.Metrics = WorkMetrics{
				HeapPushes: pushes, HeapPops: pops, StalePops: stale,
				EarlyFixes: early, HeapFixes: heapFixes,
			}
		}
		f := newForest(g, chosen, ws.ids)
		if cancelled {
			return f, interrupted(AlgLLPPrimAsync, cc, len(chosen), n-1)
		}
		return f, nil
	}

	explore := func(j uint32, push func(uint32)) {
		mweJ := mwe[j]
		lo, hi := g.ArcRange(j)
		for a := lo; a < hi; a++ {
			k := g.Target(a)
			if atomic.LoadUint32(&fixed[k]) == 1 {
				continue
			}
			key := g.ArcKey(a)
			if earlyFix && (key == mweJ || key == mwe[k]) {
				if atomic.CompareAndSwapUint32(&fixed[k], 0, 1) {
					ids[idCursor.Add(1)-1] = g.ArcEdgeID(a)
					push(k)
				}
				continue
			}
			if par.WriteMin(&dist[k], key) {
				// Q staging is integral here: the inQ dedup bounds the
				// concurrent buffer at one slot per vertex, so the
				// NoStaging ablation applies only to the other variants.
				if atomic.CompareAndSwapUint32(&inQ[k], 0, 1) {
					qbuf[qCursor.Add(1)-1] = k
				}
			}
		}
	}

	for s := 0; s < n; s++ {
		if atomic.LoadUint32(&fixed[s]) == 1 {
			continue
		}
		if cc.Stride(s) {
			return finish(true)
		}
		fixed[s] = 1
		seed := ws.bagBuf(1)
		seed[0] = uint32(s)
		for {
			// One cycle: drive the bag to quiescence, flush Q, fix one
			// vertex off the heap. Each cycle is a round segment for
			// round-aware collectors.
			cycle++
			obs.MarkRound(col, cycle)
			if serr := bag.ForEachObs(opts.Ctx, p, seed, explore, col); serr != nil {
				// A worker panic (already drained and boxed by the scheduler)
				// funnels through the deferred recover above, so there is a
				// single conversion path; anything else is cancellation.
				var pe *par.PanicError
				if errors.As(serr, &pe) {
					panic(pe)
				}
				return finish(true)
			}
			// Quiescent: flush Q into the heap, then fix the fragment's
			// nearest neighbor.
			q := qbuf[:qCursor.Load()]
			for _, k := range q {
				inQ[k] = 0
				if fixed[k] == 0 {
					h.Push(k, dist[k])
					pushes++
				}
			}
			qCursor.Store(0)
			col.Gauge(obs.GaugeHeapSize, int64(h.Len()))
			fixedOne := false
			for !h.Empty() {
				if step++; cc.Stride(step) {
					return finish(true)
				}
				k, key := h.PopMin()
				pops++
				if fixed[k] == 1 || key != dist[k] {
					stale++
					continue
				}
				fixed[k] = 1
				ids[idCursor.Add(1)-1] = par.KeyID(key)
				seed = append(seed[:0], k)
				heapFixes++
				fixedOne = true
				break
			}
			flush()
			if !fixedOne {
				break
			}
		}
	}
	return finish(false)
}
