package mst

import (
	"slices"
	"sync/atomic"

	"llpmst/internal/graph"
	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// ParallelBoruvka is the GBBS-style parallel Boruvka baseline the paper
// compares LLP-Boruvka against (§VII, "a fast parallel implementation of
// Boruvka"): rounds of
//
//  1. atomic write-min of every live cross edge into its two endpoint
//     components' best-edge cells,
//  2. adding each component's winning edge (CAS-deduplicated — an edge can
//     win for both sides) and uniting the endpoints in a lock-free
//     union-find,
//  3. relabelling vertices to their component root and compacting the live
//     edge array, discarding intra-component edges.
//
// Synchronization profile: a barrier between each phase and a union-find
// shared by all workers — exactly the costs LLP-Boruvka's rooted-star
// formulation avoids (no union-find; symmetry breaking plus pointer jumping
// instead).
//
// Cancellation via opts.Ctx is polled at every phase boundary and (strided)
// inside the per-edge phase loops; a cancelled run returns the forest edges
// chosen in completed rounds plus a non-nil error. Phase-2 winners are only
// consumed when phase 1 ran to completion, so the partial forest is always
// a subset of the canonical MSF. A worker panic, re-raised by the par
// runtime after all workers have joined (and before the panicking phase's
// results are assigned), is converted into a *par.PanicError under the same
// partial-forest contract (see recoverPanic).
func ParallelBoruvka(g *graph.CSR, opts Options) (f *Forest, err error) {
	p := opts.workers(g)
	n := g.NumVertices()
	ws, release := opts.workspace()
	defer release()
	ids := ws.idsBuf(n)[:0]
	defer recoverPanic(AlgParallelBoruvka, g, &ids, n-1, &f, &err)
	m := g.NumEdges()
	edges := g.Edges()
	cc := opts.canceller()
	col := opts.collector()
	defer col.Span("boruvka-par")()

	uf := ws.ufBuf(n)
	comp := ws.flagsABuf(n)
	par.ForEach(p, n, 8192, func(v int) { comp[v] = uint32(v) })
	best := ws.keysBuf(n)
	inT := ws.eFlagsBuf(m) // atomic 0/1
	par.Fill(p, inT, 0)
	alive := ws.eIDsBuf(m)
	par.ForEach(p, m, 8192, func(i int) { alive[i] = uint32(i) })
	spareIDs := ws.eSpareBuf(m) // compaction ping-pong target
	counters := ws.countersBuf(p)
	var rounds int64

	// Phase bodies are hoisted out of the round loop (alive is captured by
	// reference) so steady-state rounds allocate nothing.
	writeMinBody := func(i int) {
		if cc.Stride(i) {
			return
		}
		id := alive[i]
		e := &edges[id]
		cu, cv := comp[e.U], comp[e.V]
		if cu == cv {
			return
		}
		key := par.PackKey(e.W, id)
		par.WriteMin(&best[cu], key)
		par.WriteMin(&best[cv], key)
	}
	// Winner chunks run under the executing worker's attributed collector
	// view, putting each worker's share of the winner pass on its own track
	// in flight recordings.
	winnerBody := func(w, lo, hi int, out []uint32) []uint32 {
		endChunk := obs.ForWorker(col, w).Span("boruvka-par.winners.chunk")
		defer endChunk()
		for v := lo; v < hi; v++ {
			if cc.Stride(v) {
				break
			}
			if comp[v] != uint32(v) || best[v] == par.InfKey {
				continue
			}
			id := par.KeyID(best[v])
			e := &edges[id]
			uf.Union(e.U, e.V)
			if atomic.CompareAndSwapUint32(&inT[id], 0, 1) {
				out = append(out, id)
			}
		}
		return out
	}
	relabelBody := func(v int) { comp[v] = uf.Find(uint32(v)) }
	keepCross := func(id uint32) bool {
		e := &edges[id]
		return comp[e.U] != comp[e.V]
	}

	cancelled := false
	for len(alive) > 0 {
		if cc.Poll() {
			cancelled = true
			break
		}
		rounds++
		// Mark the round before its events so they land in its segment.
		obs.MarkRound(col, rounds)
		col.Count(obs.CtrRounds, 1)
		col.Gauge(obs.GaugeLiveEdges, int64(len(alive)))
		roundSpan := col.Span("boruvka-par.round")
		par.FillKeys(p, best, par.InfKey)
		// Phase 1: write-min every live cross edge into both components.
		par.ForEach(p, len(alive), 2048, writeMinBody)
		// A cancel inside phase 1 leaves best[] incomplete; phase 2 must not
		// consume it, or the "winners" need not be MSF edges.
		if cc.Poll() {
			cancelled = true
			roundSpan()
			break
		}
		// Phase 2: per component root, add the winner and unite. comp[]
		// still holds the pre-union labels, so roots are stable here.
		won := par.ForCollectIntoW(p, n, 2048, ws.picks, winnerBody)
		// Winners chosen before a mid-phase-2 cancel are sound (phase 1 was
		// complete), so they may join the partial result.
		ids = append(ids, won...)
		ws.picks = won[:0] // keep grown capacity for the next round
		if cc.Poll() {
			cancelled = true
			roundSpan()
			break
		}
		if len(won) == 0 {
			roundSpan()
			break
		}
		// Phase 3: relabel, then compact the live edge array into the spare
		// buffer, each worker compacting its own chunk (no channel or
		// atomic-append contention; see par.FilterInto), and ping-pong.
		par.ForEach(p, n, 4096, relabelBody)
		kept := par.FilterInto(p, spareIDs, alive, counters, keepCross)
		spareIDs = alive[:cap(alive)]
		alive = kept
		roundSpan()
		if cc.Poll() {
			cancelled = true
			break
		}
	}
	if opts.Metrics != nil {
		*opts.Metrics = WorkMetrics{Rounds: rounds, Unions: int64(len(ids))}
	}
	f = newForest(g, slices.Clone(ids), ws.ids)
	if cancelled {
		return f, interrupted(AlgParallelBoruvka, cc, len(ids), n-1)
	}
	return f, nil
}
