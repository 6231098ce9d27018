package mst

import (
	"llpmst/internal/graph"
	"llpmst/internal/par"
)

// Boruvka implements Algorithm 3 literally: in each round, label the
// connected components of (V, T) with a BFS from the least-numbered
// unvisited vertex, scan all edges to find the minimum-weight outgoing edge
// (mwe) of every component, add all mwe's to T, and repeat until no
// component has an outgoing edge. Handles disconnected inputs (the minimum
// spanning forest) out of the box, as the paper notes.
func Boruvka(g *graph.CSR) *Forest { return boruvka(g, nil) }

func boruvka(g *graph.CSR, mtr *WorkMetrics) *Forest {
	n := g.NumVertices()
	var rounds int64
	m := g.NumEdges()
	edges := g.Edges()
	inT := make([]bool, m)
	ids := make([]uint32, 0, n)
	cid := make([]uint32, n)
	best := make([]uint64, n)
	// Adjacency of the tree subgraph (rebuilt each round for the BFS).
	tAdj := make([][]uint32, n)
	queue := make([]uint32, 0, n)

	for {
		rounds++
		// BFS component labelling over (V, T).
		for v := range tAdj {
			tAdj[v] = tAdj[v][:0]
		}
		for _, id := range ids {
			e := edges[id]
			tAdj[e.U] = append(tAdj[e.U], e.V)
			tAdj[e.V] = append(tAdj[e.V], e.U)
		}
		const unvisited = ^uint32(0)
		for i := range cid {
			cid[i] = unvisited
		}
		for i := 0; i < n; i++ {
			if cid[i] != unvisited {
				continue
			}
			root := uint32(i)
			cid[i] = root
			queue = append(queue[:0], root)
			for len(queue) > 0 {
				v := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				for _, t := range tAdj[v] {
					if cid[t] == unvisited {
						cid[t] = root
						queue = append(queue, t)
					}
				}
			}
		}
		// Minimum outgoing edge per component.
		for i := range best {
			best[i] = par.InfKey
		}
		for id := range edges {
			e := &edges[id]
			cu, cv := cid[e.U], cid[e.V]
			if cu == cv {
				continue
			}
			key := par.PackKey(e.W, uint32(id))
			if key < best[cu] {
				best[cu] = key
			}
			if key < best[cv] {
				best[cv] = key
			}
		}
		// Add the mwe's (an edge can be the mwe of both sides; inT dedups).
		added := false
		for i := 0; i < n; i++ {
			if uint32(i) != cid[i] || best[i] == par.InfKey {
				continue
			}
			id := par.KeyID(best[i])
			if !inT[id] {
				inT[id] = true
				ids = append(ids, id)
				added = true
			}
		}
		if !added {
			if mtr != nil {
				*mtr = WorkMetrics{Rounds: rounds}
			}
			return newForest(g, ids, nil)
		}
	}
}
