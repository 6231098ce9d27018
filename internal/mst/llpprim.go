package mst

import (
	"slices"
	"sync/atomic"

	"llpmst/internal/graph"
	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// waveRec carries one frontier-expansion outcome of LLPPrimParallel:
// eid == qMark flags a Q candidate, anything else a newly fixed vertex and
// its tree edge.
type waveRec struct{ v, eid uint32 }

// qMark is the waveRec.eid sentinel for "staged for Q, not fixed".
const qMark = ^uint32(0)

// LLP-Prim (Algorithm 5, "early fixing"). The state vector G of the LLP
// formulation (Algorithm 4) — each vertex's currently proposed parent edge —
// is realized here as the packed dist[] key: the low 32 bits of a vertex's
// tentative key are exactly its proposed parent edge id, so advancing G[j]
// and relaxing dist[j] are the same operation.
//
// A vertex becomes fixed in one of the two ways §V.A enumerates:
//
//  1. as the nearest neighbor of the fixed fragment (a heap pop — classic
//     Prim), or
//  2. through a minimum weight edge (MWE): while exploring the arcs of a
//     fixed vertex j, a non-fixed neighbor k is fixed immediately if the arc
//     is j's or k's minimum-weight edge. Such edges are always in the MSF
//     (they are first-round Boruvka edges), so no heap traffic is needed and
//     the fixing can cascade: k joins the bag R and is explored in turn.
//
// Relaxations discovered while draining R are staged in the set Q and pushed
// into the heap only when R empties — Algorithm 5's device for avoiding
// insertOrAdjust churn while the bag is hot. Both optimizations have
// ablation switches in Options.
//
// The fixed set always forms a subtree of the (unique) MSF of its component:
// early fixing adds minimum-incident edges, heap pops add minimum cut edges,
// and each newly fixed vertex contributes exactly one edge. That invariant
// is why LLP-Prim(1T) performs strictly less heap work than Prim on the same
// input, the effect Fig. 2 measures.

// LLPPrim runs the sequential (1-thread) LLP-Prim of Algorithm 5.
// Disconnected inputs are handled by restarting from each unvisited vertex,
// producing the minimum spanning forest. Cancellation via opts.Ctx is
// polled once per explored vertex; a cancelled run returns the partial
// forest plus a non-nil error, and a panic (e.g. from an Observer) is
// converted into a *par.PanicError the same way (see recoverPanic).
func LLPPrim(g *graph.CSR, opts Options) (f *Forest, err error) {
	n := g.NumVertices()
	ws, release := opts.workspace()
	defer release()
	ids := ws.idsBuf(n)[:0]
	defer recoverPanic(AlgLLPPrim, g, &ids, n-1, &f, &err)
	mwe := minWeightEdges(1, g)
	earlyFix := !opts.NoEarlyFix
	staging := !opts.NoStaging
	cc := opts.canceller()
	col := opts.collector()
	defer col.Span("llp-prim")()

	fixed := ws.boolsABuf(n)
	clear(fixed)
	dist := ws.keysBuf(n)
	for i := range dist {
		dist[i] = par.InfKey
	}
	h := ws.heapBuf()
	r := ws.bagBuf(n)[:0]   // the bag R of fixed, unexplored vertices
	q := ws.stageBuf(n)[:0] // the staging set Q
	inQ := ws.boolsBBuf(n)
	clear(inQ)
	var pushes, pops, stale, early, heapFixes, relaxations int64
	var ePushes, ePops, eEarly int64 // counts already streamed to col
	var wave, bagHW int64
	step := 0 // work-item index for strided cancellation polls
	// flush streams the not-yet-emitted counter deltas and refreshes the
	// metrics snapshot. It is called once per wave (so round-aware
	// collectors see the early-fix vs heap-pop mix per wave) and once at
	// exit; the emitted-so-far bookkeeping keeps the streamed totals
	// identical to WorkMetrics no matter how often it runs.
	flush := func() {
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
		if opts.Metrics != nil {
			*opts.Metrics = WorkMetrics{
				HeapPushes: pushes, HeapPops: pops, StalePops: stale,
				EarlyFixes: early, HeapFixes: heapFixes, Relaxations: relaxations,
			}
		}
	}

	for s := 0; s < n; s++ {
		if fixed[s] {
			continue
		}
		if cc.Stride(step) {
			goto cancelled
		}
		fixed[s] = true
		r = append(r[:0], uint32(s))
		for {
			// One wave: drain the bag, flush Q, fix one vertex off the heap.
			wave++
			obs.MarkRound(col, wave)
			bagHW = int64(len(r))
			// Drain R: explore fixed vertices, cascading MWE fixings.
			for len(r) > 0 {
				if l := int64(len(r)); l > bagHW {
					bagHW = l
				}
				if step++; cc.Stride(step) {
					goto cancelled
				}
				j := r[len(r)-1]
				r = r[:len(r)-1]
				mweJ := mwe[j]
				lo, hi := g.ArcRange(j)
				for a := lo; a < hi; a++ {
					k := g.Target(a)
					if fixed[k] {
						continue
					}
					key := g.ArcKey(a)
					// Early fix via j's own mwe: a register compare.
					if earlyFix && key == mweJ {
						fixed[k] = true
						ids = append(ids, g.ArcEdgeID(a))
						r = append(r, k)
						early++
						continue
					}
					if key < dist[k] {
						// Early fix via k's mwe. The check can live inside
						// the improvement branch: key == mwe[k] implies
						// key < dist[k], because every other k-incident key
						// exceeds mwe[k] and this arc — the only one that
						// could have written dist[k] = mwe[k] — is explored
						// exactly once, now.
						if earlyFix && key == mwe[k] {
							fixed[k] = true
							ids = append(ids, g.ArcEdgeID(a))
							r = append(r, k)
							early++
							continue
						}
						dist[k] = key
						relaxations++
						if staging {
							if !inQ[k] {
								inQ[k] = true
								q = append(q, k)
							}
						} else {
							h.Push(k, key)
							pushes++
						}
					}
				}
			}
			// R drained: flush Q into the heap.
			if staging {
				for _, k := range q {
					inQ[k] = false
					if !fixed[k] {
						h.Push(k, dist[k])
						pushes++
					}
				}
				q = q[:0]
			}
			// Fix the nearest neighbor of the fragment, if any.
			fixedOne := false
			for !h.Empty() {
				if step++; cc.Stride(step) {
					goto cancelled
				}
				k, key := h.PopMin()
				pops++
				if fixed[k] || key != dist[k] {
					stale++
					continue // stale entry
				}
				fixed[k] = true
				ids = append(ids, par.KeyID(key))
				r = append(r, k)
				heapFixes++
				fixedOne = true
				break
			}
			col.Gauge(obs.GaugeFrontier, bagHW)
			col.Gauge(obs.GaugeHeapSize, int64(h.Len()))
			flush()
			if !fixedOne {
				break // component complete
			}
		}
	}
	flush()
	return newForest(g, slices.Clone(ids), ws.ids), nil

cancelled:
	flush()
	return newForest(g, slices.Clone(ids), ws.ids), interrupted(AlgLLPPrim, cc, len(ids), n-1)
}

// LLPPrimParallel runs Algorithm 5 with the bag R processed by
// opts.Workers goroutines: the vertices of R form a frontier whose arcs are
// explored in parallel ("If R consists of multiple vertices then all of them
// can be explored in parallel", §V.A). Fixing races are resolved with a CAS
// per vertex, tentative keys with atomic write-min; the heap is touched only
// in the sequential region between frontier waves, where Q is flushed.
// Cancellation via opts.Ctx is polled between waves and (strided) inside
// them; a cancelled run returns the partial forest plus a non-nil error. A
// worker panic, re-raised by the par runtime after all workers have joined,
// is converted into a *par.PanicError with the same partial-forest contract
// (see recoverPanic).
func LLPPrimParallel(g *graph.CSR, opts Options) (f *Forest, err error) {
	n := g.NumVertices()
	ws, release := opts.workspace()
	defer release()
	ids := ws.idsBuf(n)[:0]
	defer recoverPanic(AlgLLPPrimParallel, g, &ids, n-1, &f, &err)
	p := opts.workers(g)
	mwe := minWeightEdges(p, g)
	earlyFix := !opts.NoEarlyFix
	staging := !opts.NoStaging
	cc := opts.canceller()
	col := opts.collector()
	defer col.Span("llp-prim-par")()

	fixed := ws.flagsABuf(n) // atomic 0/1
	par.Fill(p, fixed, 0)
	dist := ws.keysBuf(n) // atomic packed keys
	par.FillKeys(p, dist, par.InfKey)
	inQ := ws.flagsBBuf(n) // atomic 0/1
	par.Fill(p, inQ, 0)
	h := ws.heapBuf()
	qbuf := ws.stageBuf(n)[:0]

	frontier := ws.bagBuf(n)[:0]
	// The wave body is hoisted out of the round loop (capturing the current
	// wave through the variable) so steady-state rounds allocate nothing.
	// Each chunk runs under the executing worker's attributed collector
	// view: the chunk's exploration span and early-fix count land on that
	// worker's track. The driver deliberately does NOT emit CtrEarlyFix —
	// a chunk's non-qMark records are exactly the CAS-won fixings the
	// driver later counts into WorkMetrics, so the streamed total already
	// matches and double emission would break observer/metrics consistency.
	var wave []uint32
	waveBody := func(w, lo, hi int, out []waveRec) []waveRec {
		wcol := obs.ForWorker(col, w)
		endChunk := wcol.Span("llp-prim-par.wave")
		var chunkEarly int64
		for i := lo; i < hi; i++ {
			if cc.Stride(i) {
				break
			}
			j := wave[i]
			mweJ := mwe[j]
			alo, ahi := g.ArcRange(j)
			for a := alo; a < ahi; a++ {
				k := g.Target(a)
				if atomic.LoadUint32(&fixed[k]) == 1 {
					continue
				}
				key := g.ArcKey(a)
				if earlyFix && key == mweJ {
					if atomic.CompareAndSwapUint32(&fixed[k], 0, 1) {
						out = append(out, waveRec{k, g.ArcEdgeID(a)})
						chunkEarly++
					}
					continue
				}
				// Early fix via k's own mwe (the paper's other half of "this
				// edge could be the minimum weight edge for z or for k").
				if earlyFix && key == mwe[k] {
					if atomic.CompareAndSwapUint32(&fixed[k], 0, 1) {
						out = append(out, waveRec{k, g.ArcEdgeID(a)})
						chunkEarly++
					}
					continue
				}
				if par.WriteMin(&dist[k], key) {
					if !staging {
						// Ablation: no dedup — every improvement becomes a
						// heap push, re-creating the churn Q avoids.
						out = append(out, waveRec{k, qMark})
					} else if atomic.CompareAndSwapUint32(&inQ[k], 0, 1) {
						out = append(out, waveRec{k, qMark})
					}
				}
			}
		}
		if chunkEarly != 0 {
			wcol.Count(obs.CtrEarlyFix, chunkEarly)
		}
		endChunk()
		return out
	}
	var pushes, pops, stale, early, heapFixes int64
	var ePushes, ePops int64 // counts already streamed to col
	var waveNo int64
	step := 0 // work-item index for strided cancellation polls in the heap loop
	// flush streams the not-yet-emitted heap counter deltas (early fixes
	// are streamed by the wave chunks, attributed to workers) and
	// refreshes the metrics snapshot; called once per wave and at exit.
	flush := func() {
		if d := pushes - ePushes; d != 0 {
			col.Count(obs.CtrHeapPush, d)
			ePushes = pushes
		}
		if d := pops - ePops; d != 0 {
			col.Count(obs.CtrHeapPop, d)
			ePops = pops
		}
		if opts.Metrics != nil {
			*opts.Metrics = WorkMetrics{
				HeapPushes: pushes, HeapPops: pops, StalePops: stale,
				EarlyFixes: early, HeapFixes: heapFixes,
			}
		}
	}
	for s := 0; s < n; s++ {
		if atomic.LoadUint32(&fixed[s]) == 1 {
			continue
		}
		if cc.Stride(s) {
			goto cancelled
		}
		fixed[s] = 1
		frontier = append(frontier[:0], uint32(s))
		for {
			for len(frontier) > 0 {
				if cc.Poll() {
					goto cancelled
				}
				waveNo++
				obs.MarkRound(col, waveNo)
				col.Gauge(obs.GaugeFrontier, int64(len(frontier)))
				wave = frontier
				out := par.ForCollectIntoW(p, len(wave), 32, ws.recs, waveBody)
				ws.recs = out[:0] // keep grown capacity for the next wave
				frontier = frontier[:0]
				for _, r := range out {
					if r.eid == qMark {
						qbuf = append(qbuf, r.v)
					} else {
						ids = append(ids, r.eid)
						frontier = append(frontier, r.v)
						early++
					}
				}
			}
			// Sequential region (post-barrier): flush Q, then fix the
			// nearest neighbor of the fragment.
			for _, k := range qbuf {
				if staging {
					inQ[k] = 0
				}
				if fixed[k] == 0 {
					h.Push(k, dist[k])
					pushes++
				}
			}
			qbuf = qbuf[:0]
			col.Gauge(obs.GaugeHeapSize, int64(h.Len()))
			fixedOne := false
			for !h.Empty() {
				if step++; cc.Stride(step) {
					goto cancelled
				}
				k, key := h.PopMin()
				pops++
				if fixed[k] == 1 || key != dist[k] {
					stale++
					continue
				}
				fixed[k] = 1
				ids = append(ids, par.KeyID(key))
				frontier = append(frontier, k)
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
	flush()
	return newForest(g, slices.Clone(ids), ws.ids), nil

cancelled:
	flush()
	return newForest(g, slices.Clone(ids), ws.ids), interrupted(AlgLLPPrimParallel, cc, len(ids), n-1)
}
