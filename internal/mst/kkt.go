package mst

import (
	"math/rand"

	"llpmst/internal/graph"
	"llpmst/internal/par"
	"llpmst/internal/unionfind"
)

// KKT implements the Karger–Klein–Tarjan randomized expected-linear-time
// minimum spanning forest algorithm — the §III lineage ("a randomized
// linear time algorithm was proposed by Karger... later demonstrated to run
// in linear time... with Klein, Tarjan") the paper names as the comparison
// target for its future work. Each level:
//
//  1. runs two Boruvka contraction steps (every chosen edge is an MSF edge;
//     the vertex count at least halves per step);
//  2. samples the surviving edges independently with probability 1/2;
//  3. recursively computes the sample's MSF F;
//  4. discards every F-heavy edge — an edge whose endpoints F connects by a
//     path of everywhere-lighter edges cannot be in the MSF (cycle
//     property), checked with the same binary-lifting path-maximum index
//     the verifier uses;
//  5. recurses on the F-light survivors.
//
// The sampling lemma bounds the expected number of F-light edges by the
// contracted vertex count, giving expected O(m + n) work. The result is
// still the unique canonical MSF: randomness affects only the work, never
// the output (tests run multiple seeds against the Kruskal oracle).
//
// The coin flips come from Options.Seed, so runs are reproducible.
func KKT(g *graph.CSR, opts Options) *Forest {
	m := g.NumEdges()
	edges := make([]cedge, m)
	for i := 0; i < m; i++ {
		e := g.Edge(uint32(i))
		edges[i] = cedge{u: e.U, v: e.V, key: par.PackKey(e.W, uint32(i))}
	}
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x6b6b74)) // "kkt"
	k := &kktState{rng: rng, marks: make([]bool, m)}
	ids := k.msf(g.NumVertices(), edges)
	if opts.Metrics != nil {
		*opts.Metrics = WorkMetrics{Rounds: k.levels}
	}
	return newForest(g, ids, nil)
}

// kktBaseSize is the subproblem size below which sort-and-scan Kruskal
// beats another level of sampling.
const kktBaseSize = 1 << 10

type kktState struct {
	rng    *rand.Rand
	marks  []bool // indexed by original edge id; scratch for set membership
	levels int64
}

// msf returns the original edge ids of the minimum spanning forest of the
// given contracted multigraph (vertices [0, nv), edges with canonical keys).
func (k *kktState) msf(nv int, edges []cedge) []uint32 {
	k.levels++
	if len(edges) == 0 {
		return nil
	}
	if len(edges) <= kktBaseSize {
		return kruskalEdges(nv, edges)
	}
	// Step 1: two Boruvka contraction rounds.
	var chosen []uint32
	for step := 0; step < 2 && len(edges) > 0; step++ {
		var picked []uint32
		nv, edges, picked = boruvkaStep(nv, edges)
		chosen = append(chosen, picked...)
	}
	if len(edges) == 0 {
		return chosen
	}
	// Step 2: sample edges with probability 1/2.
	sample := make([]cedge, 0, len(edges)/2+16)
	var bits uint64
	var left int
	for _, e := range edges {
		if left == 0 {
			bits = k.rng.Uint64()
			left = 64
		}
		if bits&1 == 1 {
			sample = append(sample, e)
		}
		bits >>= 1
		left--
	}
	// Step 3: the sample's MSF, recursively.
	fIDs := k.msf(nv, sample)
	// Step 4: rebuild F in the current vertex space and drop F-heavy edges.
	for _, id := range fIDs {
		k.marks[id] = true
	}
	fedges := make([]cedge, 0, len(fIDs))
	for _, e := range sample {
		if k.marks[par.KeyID(e.key)] {
			fedges = append(fedges, e)
		}
	}
	idx := newPathMaxFromEdges(nv, fedges)
	light := make([]cedge, 0, nv)
	for _, e := range edges {
		if k.marks[par.KeyID(e.key)] {
			light = append(light, e) // F edges are light by definition
			continue
		}
		pathMax, sameTree := idx.pathMax(e.u, e.v)
		if !sameTree || e.key < pathMax {
			light = append(light, e)
		}
	}
	for _, id := range fIDs {
		k.marks[id] = false
	}
	// Step 5: recurse on the light survivors.
	return append(chosen, k.msf(nv, light)...)
}

// kruskalEdges is the base case: sort-and-scan Kruskal over a contracted
// edge list, returning original edge ids.
func kruskalEdges(nv int, edges []cedge) []uint32 {
	keysByEdge := make(map[uint64]cedge, len(edges))
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		keys[i] = e.key
		keysByEdge[e.key] = e
	}
	par.SortUint64(1, keys)
	uf := unionfind.New(nv)
	var ids []uint32
	for _, key := range keys {
		e := keysByEdge[key]
		if uf.Union(e.u, e.v) {
			ids = append(ids, par.KeyID(key))
		}
	}
	return ids
}

// boruvkaStep performs one Boruvka contraction round on a contracted
// multigraph: every vertex picks its minimum incident edge, mutual picks
// are symmetry-broken into rooted trees, trees are flattened and
// contracted. Returns the new vertex count, the relabelled surviving cross
// edges, and the original ids of the chosen MSF edges. Sequential — used by
// KKT's recursion, where subproblem parallelism comes from the caller.
func boruvkaStep(nv int, edges []cedge) (int, []cedge, []uint32) {
	best := make([]uint64, nv)
	for i := range best {
		best[i] = par.InfKey
	}
	for _, e := range edges {
		if e.key < best[e.u] {
			best[e.u] = e.key
		}
		if e.key < best[e.v] {
			best[e.v] = e.key
		}
	}
	bestIdx := make([]int32, nv)
	for i := range bestIdx {
		bestIdx[i] = -1
	}
	for i := range edges {
		e := &edges[i]
		if best[e.u] == e.key {
			bestIdx[e.u] = int32(i)
		}
		if best[e.v] == e.key {
			bestIdx[e.v] = int32(i)
		}
	}
	G := make([]uint32, nv)
	var chosen []uint32
	for v := 0; v < nv; v++ {
		bi := bestIdx[v]
		if bi < 0 {
			G[v] = uint32(v)
			continue
		}
		e := &edges[bi]
		w := e.u
		if w == uint32(v) {
			w = e.v
		}
		mutual := bestIdx[w] == bi
		if mutual && uint32(v) < w {
			G[v] = uint32(v)
		} else {
			G[v] = w
		}
		if !mutual || uint32(v) < w {
			chosen = append(chosen, par.KeyID(e.key))
		}
	}
	// Flatten to stars (sequential pointer jumping).
	for v := 0; v < nv; v++ {
		for G[v] != G[G[v]] {
			G[v] = G[G[v]]
		}
	}
	// Contract.
	newID := make([]uint32, nv)
	next := uint32(0)
	for v := 0; v < nv; v++ {
		if G[v] == uint32(v) {
			newID[v] = next
			next++
		}
	}
	// Fresh slice: callers keep reading the input list (e.g. KKT's sample)
	// after contraction, so it must not be clobbered in place.
	out := make([]cedge, 0, len(edges)/2)
	for _, e := range edges {
		gu, gv := G[e.u], G[e.v]
		if gu != gv {
			out = append(out, cedge{u: newID[gu], v: newID[gv], key: e.key})
		}
	}
	return int(next), out, chosen
}
