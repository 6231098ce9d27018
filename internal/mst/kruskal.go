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
