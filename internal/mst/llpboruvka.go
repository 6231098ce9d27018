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

// The light-edge filter (see LLPBoruvka). The constants come from the
// sweeps in EXPERIMENTS "Rounds on the light edges": on ER graphs the
// filter cost 21% at m = 2n and broke even at m = 3n, and a pivot at rank
// 2n gave the lowest total over rmat, er and geo (1.5n was 7–8% faster on
// rmat and er, but left geo's light edges in small clusters and its heavy
// phase 1.8× longer).
const (
	// filterDensity is the m/n at and above which LLP-Boruvka filters.
	filterDensity = 3
	// lightRank is the pivot's rank over n: about lightRank·n edges are light.
	lightRank = 2
	// pivotSample caps the strided key sample the pivot is read from.
	pivotSample = 1024
)

// lightPivot returns the key at rank about lightRank·n among the keys of
// an n-vertex graph's edge list, read from a strided sample of at most
// pivotSample keys. The list must hold at least filterDensity·n > 0 edges.
func lightPivot(edges []graph.Edge, n int, sample []uint64) uint64 {
	m := len(edges)
	s := min(m, pivotSample)
	sample = sample[:s]
	for j := range sample {
		id := int64(j) * int64(m) / int64(s)
		sample[j] = par.PackKey(edges[id].W, uint32(id))
	}
	slices.Sort(sample)
	return sample[int64(lightRank*n)*int64(s)/int64(m)]
}

// LLPBoruvka implements Algorithm 6. Each round of the (here iteratively
// unrolled) recursion runs on a contracted graph whose vertices are the
// previous round's components:
//
//  1. every vertex picks its minimum-weight incident edge (mwe) in parallel.
//     Round 1 reads the set §V.A says "can be computed when the graph is
//     input": graph.CSR.MinArcKeys caches it on the graph (LLP-Prim reads
//     the same slice), and a key's edge id is its index in g's edge list.
//     Later rounds run on contracted edge lists, which have no CSR: an
//     atomic write-min of slot keys — an edge's weight bits over its index
//     in the round's list — so the winning key names its own edge. Every
//     list is a stable compaction of g's edge list, so slot order is id
//     order and each vertex picks the same edge the canonical key would;
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
//     allocation). Round 1 reads g's edge list by index, so the input is
//     never copied.
//
// On graphs with m ≥ 3n the recursion runs on the light edges first, as
// Filter-Kruskal does (Osipov–Sanders–Singler): round 1's contraction keeps
// only the cross edges whose key is at most a pivot of rank about 2n
// (lightPivot), and the rounds run on that list until it is empty, while
// a label per input vertex follows its component. Every light key is below
// every heavy key, so a component's lightest light leaving edge is its
// lightest leaving edge in g, and one without a light leaving edge picks
// nothing: every choice is still an MSF edge. One pass then relabels g's
// edge list through the labels, drops the edges inside a component, and
// the rounds continue on the heavy survivors. Each heavy edge is read
// about twice in all, not once per round.
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
	p := opts.workers(g)
	n := g.NumVertices()
	ws, release := opts.workspace()
	defer release()
	ids := ws.idsBuf(n)[:0]
	defer recoverPanic(AlgLLPBoruvka, g, &ids, n-1, &f, &err)
	m := g.NumEdges()
	cc := opts.canceller()
	col := opts.collector()
	defer col.Span("llp-boruvka")()

	input := g.Edges()
	edges := ws.cedgesBuf(m) // round 1 reads input; its contraction fills this
	spare := ws.cspareBuf(m) // ping-pong buffer for contraction

	// Vertex-indexed scratch, acquired once at full size and re-sliced as
	// the contracted graph shrinks.
	best := ws.keysBuf(n)
	G := ws.vertsABuf(n)
	newID := ws.vertsBBuf(n)
	rootsBuf := ws.vertsCBuf(n)
	counters := ws.countersBuf(p)

	// lab[x] is input vertex x's vertex in the current round while heavy
	// edges wait for the light ones to run out; nil when nothing waits.
	pivot := par.InfKey
	var lab []uint32
	if m > 0 && m >= filterDensity*n {
		endFilter := col.Span("llp-boruvka.filter")
		pivot = lightPivot(input, n, ws.sampleBuf())
		lab = ws.flagsABuf(n)
		endFilter()
	}

	// Per-round slices and the phase bodies reading them, hoisted out of the
	// round loop (the bodies capture the variables by reference) so
	// steady-state rounds allocate nothing.
	var (
		first bool // round 1: bst is g's cached mwe set, keyed by edge id
		bst   []uint64
		gv    []uint32
		nid   []uint32
		roots []uint32
	)
	mweBody := func(i int) {
		if cc.Stride(i) {
			return
		}
		e := &edges[i]
		k := e.key&^(1<<32-1) | uint64(i)
		par.WriteMin(&bst[e.u], k)
		par.WriteMin(&bst[e.v], k)
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
			k := bst[v]
			if k == par.InfKey {
				gv[v] = uint32(v) // isolated in the contracted graph
				continue
			}
			var a, b, id uint32
			if first {
				id = par.KeyID(k)
				e := &input[id]
				a, b = e.U, e.V
			} else {
				e := &edges[uint32(k)]
				a, b, id = e.u, e.v, par.KeyID(e.key)
			}
			w := a
			if w == uint32(v) {
				w = b
			}
			mutual := bst[w] == k
			if mutual && uint32(v) < w {
				gv[v] = uint32(v) // paper's tie-break: v roots itself
			} else {
				gv[v] = w
			}
			if !mutual || uint32(v) < w {
				out = append(out, id)
			}
		}
		return out
	}
	isRoot := func(v int) (uint32, bool) { return uint32(v), gv[v] == uint32(v) }
	nidScatter := func(i int) { nid[roots[i]] = uint32(i) }
	contractInput := func(i int) (cedge, bool) {
		e := &input[i]
		k := par.PackKey(e.W, uint32(i))
		if k > pivot {
			return cedge{}, false // heavy: waits for the relabel pass
		}
		gu, gw := gv[e.U], gv[e.V]
		if gu == gw {
			return cedge{}, false
		}
		return cedge{u: nid[gu], v: nid[gw], key: k}, true
	}
	contractEdge := func(e cedge) (cedge, bool) {
		gu, gw := gv[e.u], gv[e.v]
		if gu == gw {
			return cedge{}, false
		}
		return cedge{u: nid[gu], v: nid[gw], key: e.key}, true
	}
	followLabel := func(x int) {
		l := uint32(x)
		if !first {
			l = lab[x]
		}
		lab[x] = nid[gv[l]]
	}
	relabelInput := func(i int) (cedge, bool) {
		e := &input[i]
		lu, lv := lab[e.U], lab[e.V]
		if lu == lv {
			return cedge{}, false
		}
		return cedge{u: lu, v: lv, key: par.PackKey(e.W, uint32(i))}, true
	}

	nv, live := n, m // round 1 runs on g's own edge list
	mwe := g.MinArcKeys(p)
	var rounds, jumpRounds, jumpAdvances int64
	cancelled := false
	for live > 0 {
		if cc.Poll() {
			cancelled = true
			break
		}
		rounds++
		first = rounds == 1
		// The round mark comes first so every event below — including the
		// round's own counter — lands in this round's segment.
		obs.MarkRound(col, rounds)
		col.Count(obs.CtrRounds, 1)
		col.Gauge(obs.GaugeLiveEdges, int64(live))
		// Phase 1: bst[v] = key of v's mwe (round 1: g's cached set, read
		// only; later rounds: slot keys).
		mweSpan := col.Span("llp-boruvka.mwe")
		if first {
			bst = mwe
		} else {
			bst = best[:nv]
			par.FillKeys(p, bst, par.InfKey)
			par.ForEach(p, len(edges), 2048, mweBody)
		}
		mweSpan()
		// A cancel inside phase 1 leaves bst incomplete; the parent phase
		// must not consume it, or its choices need not be MSF edges.
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
		// worker compacting its own chunk (see par.FilterMapInto). Waiting
		// heavy edges follow through their endpoints' labels.
		contractSpan := col.Span("llp-boruvka.contract")
		roots = par.PackIndexInto(p, nv, rootsBuf, counters, isRoot)
		nid = newID[:nv]
		par.ForEach(p, len(roots), 8192, nidScatter)
		if first {
			edges = par.PackIndexInto(p, m, edges, counters, contractInput)
		} else {
			dst := par.FilterMapInto(p, spare, edges, counters, contractEdge)
			spare = edges[:cap(edges)]
			edges = dst
		}
		if lab != nil {
			par.ForEach(p, n, 8192, followLabel)
		}
		nv = len(roots)
		contractSpan()
		// The light edges have all fallen inside components: bring in the
		// heavy rest, relabelled into this round's vertex space.
		if len(edges) == 0 && lab != nil {
			if cc.Poll() {
				cancelled = true
				break
			}
			relabelSpan := col.Span("llp-boruvka.relabel")
			edges = par.PackIndexInto(p, m, edges[:cap(edges)], counters, relabelInput)
			lab = nil
			relabelSpan()
		}
		live = len(edges)
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
