package mst

import (
	"llpmst/internal/graph"
	"llpmst/internal/par"
	"llpmst/internal/unionfind"
)

// Kruskal is the classic sort-then-scan algorithm (§III): sort all edges by
// the packed total order and add each edge that joins two different
// union-find components. Serves as an additional baseline and as the
// correctness oracle for the test suite.
func Kruskal(g *graph.CSR) *Forest { return kruskal(g, nil) }

func kruskal(g *graph.CSR, mtr *WorkMetrics) *Forest {
	m := g.NumEdges()
	keys := make([]uint64, m)
	for i := 0; i < m; i++ {
		keys[i] = g.EdgeKey(uint32(i))
	}
	par.SortUint64(1, keys)
	uf := unionfind.New(g.NumVertices())
	ids := make([]uint32, 0, g.NumVertices())
	for _, key := range keys {
		id := par.KeyID(key)
		e := g.Edge(id)
		if uf.Union(e.U, e.V) {
			ids = append(ids, id)
		}
	}
	if mtr != nil {
		*mtr = WorkMetrics{Rounds: 1, Unions: int64(len(ids))}
	}
	return newForest(g, ids, nil)
}

// FilterKruskal is the parallel filter-Kruskal variant (Osipov, Sanders,
// Singler): partition edges around a pivot, recurse on the light half, then
// *filter* the heavy half in parallel — dropping edges whose endpoints the
// light recursion already connected — before recursing on what survives.
// Sorting, partitioning and filtering are parallel; the union-find scan of
// each base case is sequential (a lock-free union-find answers the parallel
// Same queries during filtering). Included because Kruskal is the third
// classical algorithm §III discusses and a natural extra baseline for the
// harness.
func FilterKruskal(g *graph.CSR, opts Options) *Forest {
	p := opts.workers(g)
	n := g.NumVertices()
	m := g.NumEdges()
	keys := make([]uint64, m)
	par.ForEach(p, m, 8192, func(i int) { keys[i] = g.EdgeKey(uint32(i)) })
	uf := unionfind.NewConcurrent(n)
	ids := make([]uint32, 0, n)
	joined := 0
	target := 0 // n - number of components; unknown upfront, tracked lazily

	// Base case threshold: below this, sort and scan beats partitioning.
	threshold := m / (4 * p)
	if threshold < 1<<12 {
		threshold = 1 << 12
	}

	var recurse func(keys []uint64)
	base := func(keys []uint64) {
		par.SortUint64(p, keys)
		for _, key := range keys {
			id := par.KeyID(key)
			e := g.Edge(id)
			if uf.Union(e.U, e.V) {
				ids = append(ids, id)
				joined++
			}
		}
	}
	recurse = func(keys []uint64) {
		if len(keys) == 0 || joined >= target {
			return
		}
		if len(keys) <= threshold {
			base(keys)
			return
		}
		pivot := medianOfThree(keys)
		light := par.PackFunc(p, keys, func(k uint64) bool { return k <= pivot })
		if len(light) == len(keys) {
			// Degenerate pivot (the maximum); fall back to the base case
			// rather than recursing on an unshrunk problem.
			base(keys)
			return
		}
		heavy := par.PackFunc(p, keys, func(k uint64) bool { return k > pivot })
		recurse(light)
		if joined >= target {
			return
		}
		// Filter: drop heavy edges already connected by the light half.
		survivors := par.PackFunc(p, heavy, func(k uint64) bool {
			e := g.Edge(par.KeyID(k))
			return !uf.Same(e.U, e.V)
		})
		recurse(survivors)
	}
	target = n - 1 // upper bound; early exit just stops sooner when reached
	recurse(keys)
	return newForest(g, ids, nil)
}

func medianOfThree(keys []uint64) uint64 {
	a, b, c := keys[0], keys[len(keys)/2], keys[len(keys)-1]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
