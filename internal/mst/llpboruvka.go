package mst

import (
	"slices"

	"llpmst/internal/graph"
	"llpmst/internal/llp"
	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// cedge is a contracted edge: endpoints in the current round's vertex space
// plus the canonical packed key (whose low bits are the original edge id).
type cedge struct {
	u, v uint32
	key  uint64
}

// LLPBoruvka implements Algorithm 6. Each round of the (here iteratively
// unrolled) recursion runs on a contracted graph whose vertices are the
// previous round's components:
//
//  1. every vertex picks its minimum-weight incident edge (mwe) in parallel.
//     Round 1 reads the set §V.A says "can be computed when the graph is
//     input": graph.CSR.MinArcKeys caches it on the graph (LLP-Prim reads
//     the same slice), and a key's edge id is its index in round 1's edge
//     list. Later rounds run on contracted edge lists, which have no CSR:
//     an atomic write-min, then a race-free winner pass (keys are unique);
//  2. parents are chosen with the paper's symmetry break: G[v] = w for
//     mwe(v) = (v, w), except when the choice is mutual and v < w, in which
//     case v roots itself. G is then a forest of rooted trees in which edge
//     weights strictly decrease towards the root (Lemma 3/4);
//  3. the rooted trees are flattened to rooted stars by the LLP pointer-
//     jumping instance (forbidden(j) ≡ G[j] ≠ G[G[j]], advance(j): G[j] :=
//     G[G[j]]) run on the driver selected by opts.JumpMode — by default the
//     barrier-free Async driver, the "little to no synchronization within a
//     round" the paper emphasizes;
//  4. components are contracted: star roots become the next round's
//     vertices, intra-component edges are discarded, and surviving edges are
//     relabelled into a ping-pong buffer in one pass (no per-round
//     allocation).
//
// Unlike ParallelBoruvka there is no shared union-find: component identity
// is carried entirely by the G array and resolved by pointer jumping.
//
// Cancellation via opts.Ctx is polled at every phase boundary, (strided)
// inside the per-edge phase loops, and between pointer-jumping sweeps; a
// cancelled run returns the forest edges chosen so far plus a non-nil
// error. Parent choices are only consumed when the preceding mwe phase ran
// to completion, so the partial forest is always a subset of the canonical
// MSF. A worker panic, re-raised by the par runtime after all workers have
// joined (and before the panicking phase's results are assigned), is
// converted into a *par.PanicError under the same partial-forest contract
// (see recoverPanic).
func LLPBoruvka(g *graph.CSR, opts Options) (f *Forest, err error) {
	p := opts.workers()
	n := g.NumVertices()
	ws, release := opts.workspace()
	defer release()
	ids := ws.idsBuf(n)[:0]
	defer recoverPanic(AlgLLPBoruvka, g, &ids, n-1, &f, &err)
	m := g.NumEdges()
	cc := opts.canceller()
	col := opts.collector()
	defer col.Span("llp-boruvka")()

	edges := ws.cedgesBuf(m)
	par.ForEach(p, m, 4096, func(i int) {
		e := g.Edge(uint32(i))
		edges[i] = cedge{u: e.U, v: e.V, key: par.PackKey(e.W, uint32(i))}
	})
	spare := ws.cspareBuf(m) // ping-pong buffer for contraction

	// Vertex-indexed scratch, acquired once at full size and re-sliced as
	// the contracted graph shrinks.
	best := ws.keysBuf(n)
	bestIdx := ws.vIdxBuf(n)
	G := ws.vertsABuf(n)
	newID := ws.vertsBBuf(n)
	rootsBuf := ws.vertsCBuf(n)
	counters := ws.countersBuf(p)

	// Per-round slices and the phase bodies reading them, hoisted out of the
	// round loop (the bodies capture the variables by reference) so
	// steady-state rounds allocate nothing.
	var (
		bst   []uint64
		bidx  []int32
		gv    []uint32
		nid   []uint32
		roots []uint32
	)
	mweBody := func(i int) {
		if cc.Stride(i) {
			return
		}
		e := &edges[i]
		par.WriteMin(&bst[e.u], e.key)
		par.WriteMin(&bst[e.v], e.key)
	}
	// Round 1 runs on g itself, whose edge list index is the edge id, so
	// its mwe set is the one cached at input (§V.A).
	mwe := g.MinArcKeys(p)
	firstBody := func(v int) {
		if k := mwe[v]; k == par.InfKey {
			bidx[v] = -1 // isolated vertex
		} else {
			bidx[v] = int32(par.KeyID(k))
		}
	}
	winnerBody := func(i int) {
		e := &edges[i]
		if bst[e.u] == e.key {
			bidx[e.u] = int32(i)
		}
		if bst[e.v] == e.key {
			bidx[e.v] = int32(i)
		}
	}
	// Parent chunks run under the executing worker's attributed collector
	// view, so flight recordings show which worker chose which share of the
	// parents (the chunk span, not the driver's phase span, lands on the
	// worker's track).
	parentBody := func(w, lo, hi int, out []uint32) []uint32 {
		endChunk := obs.ForWorker(col, w).Span("llp-boruvka.parents.chunk")
		defer endChunk()
		for v := lo; v < hi; v++ {
			if cc.Stride(v) {
				break
			}
			bi := bidx[v]
			if bi < 0 {
				gv[v] = uint32(v) // isolated in the contracted graph
				continue
			}
			e := &edges[bi]
			w := e.u
			if w == uint32(v) {
				w = e.v
			}
			mutual := bidx[w] == bi
			if mutual && uint32(v) < w {
				gv[v] = uint32(v) // paper's tie-break: v roots itself
			} else {
				gv[v] = w
			}
			if !mutual || uint32(v) < w {
				out = append(out, par.KeyID(e.key))
			}
		}
		return out
	}
	isRoot := func(v int) bool { return gv[v] == uint32(v) }
	nidScatter := func(i int) { nid[roots[i]] = uint32(i) }
	contractEdge := func(e cedge) (cedge, bool) {
		gu, gw := gv[e.u], gv[e.v]
		if gu == gw {
			return cedge{}, false
		}
		return cedge{u: nid[gu], v: nid[gw], key: e.key}, true
	}

	nv := n
	var rounds, jumpRounds, jumpAdvances int64
	cancelled := false
	for len(edges) > 0 {
		if cc.Poll() {
			cancelled = true
			break
		}
		rounds++
		// The round mark comes first so every event below — including the
		// round's own counter — lands in this round's segment.
		obs.MarkRound(col, rounds)
		col.Count(obs.CtrRounds, 1)
		col.Gauge(obs.GaugeLiveEdges, int64(len(edges)))
		// Phase 1: bidx[v] = index (into edges) of v's mwe.
		mweSpan := col.Span("llp-boruvka.mwe")
		bidx = bestIdx[:nv]
		if rounds == 1 {
			par.ForEach(p, nv, 8192, firstBody)
		} else {
			bst = best[:nv]
			par.FillKeys(p, bst, par.InfKey)
			par.ForEach(p, len(edges), 2048, mweBody)
			// Winner pass: keys are unique, so each cell has exactly one
			// writer — no atomics needed.
			par.Fill(p, bidx, -1)
			par.ForEach(p, len(edges), 2048, winnerBody)
		}
		mweSpan()
		// A cancel inside phase 1 leaves bst/bidx incomplete; the parent
		// phase must not consume them, or its choices need not be MSF edges.
		if cc.Poll() {
			cancelled = true
			break
		}
		// Phase 2: choose parents with the symmetry break, and collect each
		// chosen edge exactly once (mutual pairs: the smaller endpoint
		// reports; non-mutual: the choosing endpoint reports).
		parentSpan := col.Span("llp-boruvka.parents")
		gv = G[:nv]
		chosen := par.ForCollectIntoW(p, nv, 2048, ws.picks, parentBody)
		parentSpan()
		// Choices made before a mid-parent-phase cancel are sound (the mwe
		// phase was complete), so they may join the partial result.
		ids = append(ids, chosen...)
		ws.picks = chosen[:0] // keep grown capacity for the next round
		if cc.Poll() {
			cancelled = true
			break
		}
		// Phase 3: rooted trees -> rooted stars via LLP pointer jumping.
		jumpSpan := col.Span("llp-boruvka.jump")
		jst, jumpErr := llp.RunCtx(opts.Ctx, opts.JumpMode, p, ws.jumpBuf(gv))
		jumpSpan()
		jumpRounds += int64(jst.Rounds)
		jumpAdvances += jst.Advances
		col.Count(obs.CtrJumpRounds, int64(jst.Rounds))
		col.Count(obs.CtrJumpAdvances, jst.Advances)
		// An interrupted jump leaves non-star trees in gv; contraction must
		// not run on them.
		if jumpErr != nil || cc.Poll() {
			cancelled = true
			break
		}
		// Phase 4: contract. Star roots become next round's vertices;
		// surviving cross edges are relabelled into the spare buffer, each
		// worker compacting its own chunk (see par.FilterMapInto).
		contractSpan := col.Span("llp-boruvka.contract")
		roots = par.PackIndexInto(p, nv, rootsBuf, counters, isRoot)
		nid = newID[:nv]
		par.ForEach(p, len(roots), 8192, nidScatter)
		dst := par.FilterMapInto(p, spare, edges, counters, contractEdge)
		spare = edges[:cap(edges)]
		edges = dst
		nv = len(roots)
		contractSpan()
	}
	if opts.Metrics != nil {
		*opts.Metrics = WorkMetrics{
			Rounds: rounds, JumpRounds: jumpRounds, JumpAdvances: jumpAdvances,
		}
	}
	f = newForest(g, slices.Clone(ids), ws.ids)
	if cancelled {
		return f, interrupted(AlgLLPBoruvka, cc, len(ids), n-1)
	}
	return f, nil
}
