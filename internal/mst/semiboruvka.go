package mst

import (
	"errors"
	"slices"
	"sync/atomic"

	"llpmst/internal/graph"
	"llpmst/internal/llp"
	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// shardArcTarget sizes the semiring SpMV's row shards: each shard covers
// roughly this many matrix entries (8 KiB of packed keys — comfortably
// inside L1), so a shard is one cache-resident unit of work and skewed
// degree distributions (one giant scale-free row next to thousands of tiny
// ones) balance through the work-stealing scheduler rather than through a
// static split.
const shardArcTarget = 1024

// SemiringBoruvka is the sparse-matrix (GraphBLAS-style) Boruvka backend:
// the Baer–Kanakagiri–Solomonik formulation of MSF rounds as min-plus
// semiring linear algebra, specialized to this repo's packed (weight, edge
// id) key order. Each round:
//
//  1. builds the contracted graph's adjacency matrix in row-major form — a
//     component-indexed permutation of the live edge list (count per row,
//     exclusive scan, scatter), not an explicit matrix product;
//  2. computes the selection vector y = A ⊕.⊗ 1 — a min-plus SpMV in which
//     row r's reduction is a branch-free packed min over its contiguous
//     entries (par.MinRowsInto: no atomics anywhere in the row loop,
//     because each row has exactly one writer). Rows are blocked into
//     cache-sized shards (~shardArcTarget entries) handed out via the
//     sched work-stealing bag, so skewed rows do not serialize the sweep;
//  3. hooks: G[r] is the far endpoint of r's selected edge, with the
//     paper's mutual-minimum symmetry break (keys are globally unique, so
//     mutuality is y[r] == y[w]); each selected edge id is collected once;
//  4. shortcuts the selection vector to rooted stars by LLP pointer
//     jumping (the same forbidden(j) ≡ G[j] ≠ G[G[j]] instance LLP-Boruvka
//     uses, on the driver selected by opts.JumpMode);
//  5. contracts by implicit relabel: star roots become the next round's
//     row indices and surviving edges are compacted into the ping-pong
//     buffer with par.FilterMapInto.
//
// Because the reduction is over canonical packed keys, the selected edge is
// the true (weight, id)-minimum of every row, so the produced forest is the
// same unique MSF as Kruskal's, edge for edge.
//
// Cancellation (opts.Ctx) and worker panics follow the package protocol:
// polls at phase boundaries and strided inside the sweeps, partial forests
// only from fully completed hook phases, panics converted to *par.PanicError
// (see ctx.go). All scratch comes from the Workspace, so warm steady-state
// runs allocate O(1).
func SemiringBoruvka(g *graph.CSR, opts Options) (f *Forest, err error) {
	p := opts.workers(g)
	n := g.NumVertices()
	ws, release := opts.workspace()
	defer release()
	ids := ws.idsBuf(n)[:0]
	defer recoverPanic(AlgSemiringBoruvka, g, &ids, n-1, &f, &err)
	m := g.NumEdges()
	cc := opts.canceller()
	col := opts.collector()
	defer col.Span("semi-boruvka")()

	edges := ws.cedgesBuf(m)
	par.ForEach(p, m, 4096, func(i int) {
		e := g.Edge(uint32(i))
		edges[i] = cedge{u: e.U, v: e.V, key: par.PackKey(e.W, uint32(i))}
	})
	spare := ws.cspareBuf(m) // ping-pong buffer for contraction

	// Scratch, acquired once at full size and re-sliced as the matrix
	// shrinks. eIndex maps a canonical edge id (the low half of a packed
	// key, so also of a SpMV result) back to the edge's position in the
	// live list — how a row minimum is turned back into endpoints.
	rowOffFull := ws.rowOffBuf(n + 1)
	arcKeys := ws.arcKeysBuf(2 * m)
	eIndex := ws.eIDsBuf(m)
	cursorFull := ws.flagsABuf(n)
	yFull := ws.keysBuf(n)
	GFull := ws.vertsABuf(n)
	newID := ws.vertsBBuf(n)
	rootsBuf := ws.vertsCBuf(n)
	shardRows := ws.stageBuf(n) // shard b starts at row shardRows[b]
	counters := ws.countersBuf(p)
	bag := ws.asyncBagBuf()

	// Per-round slices and the phase bodies reading them, hoisted out of
	// the round loop (the bodies capture by reference) so steady-state
	// rounds allocate nothing.
	var (
		off     []int64
		cur     []uint32
		y       []uint64
		gv      []uint32
		nid     []uint32
		roots   []uint32
		nShards int
		nv      int
	)
	countBody := func(i int) {
		if cc.Stride(i) {
			return
		}
		e := &edges[i]
		atomic.AddInt64(&off[e.u], 1)
		atomic.AddInt64(&off[e.v], 1)
	}
	scatterBody := func(i int) {
		if cc.Stride(i) {
			return
		}
		e := &edges[i]
		// The per-row cursor orders entries nondeterministically under
		// contention, but min is order-independent and keys are unique, so
		// y — and everything after it — is deterministic anyway.
		arcKeys[off[e.u]+int64(atomic.AddUint32(&cur[e.u], 1))-1] = e.key
		arcKeys[off[e.v]+int64(atomic.AddUint32(&cur[e.v], 1))-1] = e.key
		eIndex[par.KeyID(e.key)] = uint32(i)
	}
	// Single-worker runs take plain-increment variants of the build bodies:
	// with one writer the atomic RMWs buy nothing, and dropping them takes
	// four uncontended-but-serializing instructions out of the per-edge
	// build cost.
	countFn, scatterFn := countBody, scatterBody
	if p == 1 {
		countFn = func(i int) {
			if cc.Stride(i) {
				return
			}
			e := &edges[i]
			off[e.u]++
			off[e.v]++
		}
		scatterFn = func(i int) {
			if cc.Stride(i) {
				return
			}
			e := &edges[i]
			pu := off[e.u] + int64(cur[e.u])
			cur[e.u]++
			pv := off[e.v] + int64(cur[e.v])
			cur[e.v]++
			arcKeys[pu] = e.key
			arcKeys[pv] = e.key
			eIndex[par.KeyID(e.key)] = uint32(i)
		}
	}
	spmvShard := func(b uint32, _ func(uint32)) {
		lo := int(shardRows[b])
		hi := nv
		if int(b)+1 < nShards {
			hi = int(shardRows[b+1])
		}
		if cc.Stride(lo) {
			return
		}
		par.MinRowsInto(y[lo:hi], off[lo:hi+1], arcKeys)
	}
	// Hook chunks run under the executing worker's attributed collector
	// view, like LLP-Boruvka's parent phase, so flight recordings show
	// which worker hooked which share of the rows.
	hookBody := func(w, lo, hi int, out []uint32) []uint32 {
		endChunk := obs.ForWorker(col, w).Span("semi-boruvka.hook.chunk")
		defer endChunk()
		for r := lo; r < hi; r++ {
			if cc.Stride(r) {
				break
			}
			yr := y[r]
			if yr == par.InfKey {
				gv[r] = uint32(r) // empty row: isolated component
				continue
			}
			e := &edges[eIndex[par.KeyID(yr)]]
			w := e.u
			if w == uint32(r) {
				w = e.v
			}
			mutual := y[w] == yr
			if mutual && uint32(r) < w {
				gv[r] = uint32(r) // paper's tie-break: r roots itself
			} else {
				gv[r] = w
			}
			if !mutual || uint32(r) < w {
				out = append(out, par.KeyID(yr))
			}
		}
		return out
	}
	isRoot := func(v int) (uint32, bool) { return uint32(v), gv[v] == uint32(v) }
	nidScatter := func(i int) { nid[roots[i]] = uint32(i) }
	contractEdge := func(e cedge) (cedge, bool) {
		gu, gw := gv[e.u], gv[e.v]
		if gu == gw {
			return cedge{}, false
		}
		return cedge{u: nid[gu], v: nid[gw], key: e.key}, true
	}

	nv = n
	var rounds, jumpRounds, jumpAdvances int64
	cancelled := false
	for len(edges) > 0 {
		if cc.Poll() {
			cancelled = true
			break
		}
		rounds++
		obs.MarkRound(col, rounds)
		col.Count(obs.CtrRounds, 1)
		col.Gauge(obs.GaugeLiveEdges, int64(len(edges)))
		// Phase 1: materialize this round's matrix rows — the implicit
		// relabel. Count entries per row, exclusive-scan into offsets,
		// scatter each edge's key into both endpoint rows.
		buildSpan := col.Span("semi-boruvka.build")
		off = rowOffFull[:nv+1]
		par.Fill(p, off[:nv], 0)
		cur = cursorFull[:nv]
		par.Fill(p, cur, 0)
		par.ForEach(p, len(edges), 2048, countFn)
		off[nv] = par.ExclusiveScan(p, off[:nv])
		par.ForEach(p, len(edges), 2048, scatterFn)
		// Block rows into cache-sized shards: cut whenever the running
		// entry count passes the target, so each shard is one L1-resident
		// reduction unit regardless of how skewed the rows are.
		shards := shardRows[:0]
		shards = append(shards, 0)
		var acc int64
		for r := 0; r < nv-1; r++ {
			if acc += off[r+1] - off[r]; acc >= shardArcTarget {
				shards = append(shards, uint32(r+1))
				acc = 0
			}
		}
		nShards = len(shards)
		seed := ws.bagBuf(nShards)
		for b := range seed {
			seed[b] = uint32(b)
		}
		buildSpan()
		// A cancel inside phase 1 leaves the rows incomplete; the SpMV
		// must not reduce them.
		if cc.Poll() {
			cancelled = true
			break
		}
		// Phase 2: the min-plus SpMV. Shards go through the work-stealing
		// bag; each owns a contiguous row range, so no atomics are needed
		// in the reduction.
		spmvSpan := col.Span("semi-boruvka.spmv")
		y = yFull[:nv]
		serr := bag.ForEachObs(opts.Ctx, p, seed, spmvShard, col)
		spmvSpan()
		col.Count(obs.CtrSemiSpmvRows, int64(nv))
		col.Count(obs.CtrSemiSpmvArcs, 2*int64(len(edges)))
		col.Count(obs.CtrSemiShards, int64(nShards))
		if serr != nil {
			// A worker panic (already drained and boxed by the scheduler)
			// funnels through the deferred recover above, so there is a
			// single conversion path; anything else is cancellation.
			var pe *par.PanicError
			if errors.As(serr, &pe) {
				panic(pe)
			}
			cancelled = true
			break
		}
		if cc.Poll() {
			cancelled = true
			break
		}
		// Phase 3: hook on the selection vector, collecting each chosen
		// edge exactly once (mutual pairs: the smaller row reports).
		hookSpan := col.Span("semi-boruvka.hook")
		gv = GFull[:nv]
		chosen := par.ForCollectIntoW(p, nv, 2048, ws.picks, hookBody)
		hookSpan()
		// Hooks made before a mid-phase cancel are sound (the SpMV was
		// complete), so they may join the partial result.
		ids = append(ids, chosen...)
		ws.picks = chosen[:0] // keep grown capacity for the next round
		if cc.Poll() {
			cancelled = true
			break
		}
		// Phase 4: shortcut the selection vector to rooted stars.
		jumpSpan := col.Span("semi-boruvka.jump")
		jst, jumpErr := llp.RunCtx(opts.Ctx, opts.JumpMode, p, ws.jumpBuf(gv))
		jumpSpan()
		jumpRounds += int64(jst.Rounds)
		jumpAdvances += jst.Advances
		col.Count(obs.CtrJumpRounds, int64(jst.Rounds))
		col.Count(obs.CtrJumpAdvances, jst.Advances)
		if jumpErr != nil || cc.Poll() {
			cancelled = true
			break
		}
		// Phase 5: contract by relabel. Star roots become the next round's
		// row indices; surviving cross edges compact into the spare buffer.
		contractSpan := col.Span("semi-boruvka.contract")
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
		return f, interrupted(AlgSemiringBoruvka, cc, len(ids), n-1)
	}
	return f, nil
}
