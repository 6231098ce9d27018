package mst

import (
	"fmt"
	"math/bits"

	"llpmst/internal/graph"
	"llpmst/internal/par"
	"llpmst/internal/unionfind"
)

// CheckForest verifies structural validity of a forest for graph g: edge ids
// in range and duplicate-free, acyclic, spanning within every component of
// g, and consistent Weight/Trees/N fields. It does NOT check minimality; see
// VerifyMinimum.
//
// The spanning check reads the edge list only, so it leaves a loaded
// graph's adjacency unbuilt: an acyclic F spans G iff no edge of G joins two
// trees of F, and then G has exactly F's n − |F| components.
func CheckForest(g *graph.CSR, f *Forest) error {
	n := g.NumVertices()
	if f.N != n {
		return fmt.Errorf("verify: forest.N = %d, graph has %d vertices", f.N, n)
	}
	uf := unionfind.New(n)
	var weight float64
	prev := int64(-1)
	for _, id := range f.EdgeIDs {
		if int(id) >= g.NumEdges() {
			return fmt.Errorf("verify: edge id %d out of range", id)
		}
		if int64(id) <= prev {
			return fmt.Errorf("verify: edge ids not sorted/unique at %d", id)
		}
		prev = int64(id)
		e := g.Edge(id)
		if !uf.Union(e.U, e.V) {
			return fmt.Errorf("verify: edge %d (%d,%d) creates a cycle", id, e.U, e.V)
		}
		weight += float64(e.W)
	}
	tree := make([]uint32, n)
	for v := range tree {
		tree[v] = uf.Find(uint32(v))
	}
	if id, ok := joiningEdge(g.Edges(), tree); ok {
		e := g.Edge(id)
		return fmt.Errorf("verify: edge %d (%d,%d) joins two trees, so the forest does not span its component", id, e.U, e.V)
	}
	comps := n - len(f.EdgeIDs)
	if f.Trees != comps {
		return fmt.Errorf("verify: forest.Trees = %d, graph has %d components", f.Trees, comps)
	}
	if weight != f.Weight {
		return fmt.Errorf("verify: forest.Weight = %g, edges sum to %g", f.Weight, weight)
	}
	return nil
}

// joiningEdge returns the smallest id of an edge whose endpoints lie in
// different trees (tree[v] labels v's tree), scanning the edge list in
// parallel.
func joiningEdge(edges []graph.Edge, tree []uint32) (uint32, bool) {
	first := uint32(len(edges))
	par.For(0, len(edges), 4096, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			if e := &edges[id]; tree[e.U] != tree[e.V] {
				par.WriteMinU32(&first, uint32(id))
				return
			}
		}
	})
	return first, int(first) < len(edges)
}

// VerifyMinimum verifies that f is the minimum spanning forest of g using
// the cycle property: for every non-forest edge e = (u,v), the maximum
// packed key on the forest path between u and v must be smaller than e's
// key. Path maxima are answered with binary lifting (O(n log n) space,
// O(log n) per query), so the whole check is O((n + m) log n) — the
// deterministic analogue of the linear-time verifiers §III cites.
func VerifyMinimum(g *graph.CSR, f *Forest) error {
	if err := CheckForest(g, f); err != nil {
		return err
	}
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	lift := newPathMaxIndex(g, f)
	inForest := make([]bool, g.NumEdges())
	for _, id := range f.EdgeIDs {
		inForest[id] = true
	}
	violations := par.ForCollect(0, g.NumEdges(), 4096, func(lo, hi int, out []error) []error {
		for id := lo; id < hi; id++ {
			if inForest[id] {
				continue
			}
			e := g.Edge(uint32(id))
			key := g.EdgeKey(uint32(id))
			pathMax, sameTree := lift.pathMax(e.U, e.V)
			if !sameTree {
				// A graph edge always connects vertices of one component,
				// which CheckForest proved the forest spans.
				out = append(out, fmt.Errorf("verify: endpoints of edge %d in different trees", id))
				continue
			}
			if pathMax > key {
				out = append(out, fmt.Errorf(
					"verify: cycle property violated: non-forest edge %d (key %d) is lighter than forest path max %d",
					id, key, pathMax))
			}
		}
		return out
	})
	if len(violations) > 0 {
		return violations[0]
	}
	return nil
}

// pathMaxIndex answers max-key-on-forest-path queries with binary lifting.
type pathMaxIndex struct {
	depth []int32
	root  []uint32
	up    [][]uint32 // up[l][v]: 2^l-th ancestor
	mx    [][]uint64 // mx[l][v]: max key on the 2^l-step path upwards
}

func newPathMaxIndex(g *graph.CSR, f *Forest) *pathMaxIndex {
	fedges := make([]cedge, len(f.EdgeIDs))
	for i, id := range f.EdgeIDs {
		e := g.Edge(id)
		fedges[i] = cedge{u: e.U, v: e.V, key: g.EdgeKey(id)}
	}
	n := g.NumVertices()
	// Forest adjacency.
	adjOff := make([]int32, n+1)
	for _, e := range fedges {
		adjOff[e.u+1]++
		adjOff[e.v+1]++
	}
	for i := 0; i < n; i++ {
		adjOff[i+1] += adjOff[i]
	}
	type half struct {
		to  uint32
		key uint64
	}
	adj := make([]half, adjOff[n])
	cursor := make([]int32, n)
	copy(cursor, adjOff[:n])
	for _, e := range fedges {
		adj[cursor[e.u]] = half{e.v, e.key}
		cursor[e.u]++
		adj[cursor[e.v]] = half{e.u, e.key}
		cursor[e.v]++
	}
	levels := 1
	for 1<<levels < n {
		levels++
	}
	idx := &pathMaxIndex{
		depth: make([]int32, n),
		root:  make([]uint32, n),
		up:    make([][]uint32, levels),
		mx:    make([][]uint64, levels),
	}
	for l := range idx.up {
		idx.up[l] = make([]uint32, n)
		idx.mx[l] = make([]uint64, n)
	}
	// Root every tree with an iterative BFS, filling level 0.
	const unseen = ^uint32(0)
	for i := range idx.root {
		idx.root[i] = unseen
	}
	queue := make([]uint32, 0, 1024)
	for s := 0; s < n; s++ {
		if idx.root[s] != unseen {
			continue
		}
		idx.root[s] = uint32(s)
		idx.up[0][s] = uint32(s)
		idx.mx[0][s] = 0
		idx.depth[s] = 0
		queue = append(queue[:0], uint32(s))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, h := range adj[adjOff[v]:adjOff[v+1]] {
				if idx.root[h.to] != unseen {
					continue
				}
				idx.root[h.to] = uint32(s)
				idx.depth[h.to] = idx.depth[v] + 1
				idx.up[0][h.to] = v
				idx.mx[0][h.to] = h.key
				queue = append(queue, h.to)
			}
		}
	}
	for l := 1; l < levels; l++ {
		prevUp, prevMx := idx.up[l-1], idx.mx[l-1]
		curUp, curMx := idx.up[l], idx.mx[l]
		par.ForEach(0, n, 8192, func(v int) {
			mid := prevUp[v]
			curUp[v] = prevUp[mid]
			curMx[v] = max(prevMx[v], prevMx[mid])
		})
	}
	return idx
}

// pathMax returns the maximum key on the forest path between u and v and
// whether they are in the same tree.
func (idx *pathMaxIndex) pathMax(u, v uint32) (uint64, bool) {
	if idx.root[u] != idx.root[v] {
		return 0, false
	}
	var best uint64
	// Equalize depths.
	if idx.depth[u] < idx.depth[v] {
		u, v = v, u
	}
	diff := idx.depth[u] - idx.depth[v]
	for diff != 0 {
		l := bits.TrailingZeros32(uint32(diff))
		best = max(best, idx.mx[l][u])
		u = idx.up[l][u]
		diff &= diff - 1
	}
	if u == v {
		return best, true
	}
	for l := len(idx.up) - 1; l >= 0; l-- {
		if idx.up[l][u] != idx.up[l][v] {
			best = max(best, idx.mx[l][u], idx.mx[l][v])
			u, v = idx.up[l][u], idx.up[l][v]
		}
	}
	best = max(best, idx.mx[0][u], idx.mx[0][v])
	return best, true
}
