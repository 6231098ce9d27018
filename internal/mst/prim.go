package mst

import (
	"llpmst/internal/graph"
	"llpmst/internal/par"
	"llpmst/internal/pq"
)

// Prim implements Algorithm 2: grow one fragment at a time from each
// unvisited source, always fixing the non-fixed vertex with the smallest
// tentative cost, using an indexed binary heap with decrease-key
// (H.insertOrAdjust). Runs over every component, so disconnected inputs
// yield the minimum spanning forest.
func Prim(g *graph.CSR) *Forest { return primIndexed(g, nil) }

func primIndexed(g *graph.CSR, mtr *WorkMetrics) *Forest {
	n := g.NumVertices()
	fixed := make([]bool, n)
	dist := make([]uint64, n)
	parentEdge := make([]uint32, n)
	for i := range dist {
		dist[i] = par.InfKey
	}
	h := pq.NewIndexedHeap(n)
	ids := make([]uint32, 0, n)
	var pushes, pops, relaxations int64
	for s := 0; s < n; s++ {
		if fixed[s] {
			continue
		}
		dist[s] = 0
		h.InsertOrDecrease(uint32(s), 0)
		pushes++
		for !h.Empty() {
			j, _ := h.PopMin()
			pops++
			fixed[j] = true
			if j != uint32(s) {
				ids = append(ids, parentEdge[j])
			}
			lo, hi := g.ArcRange(j)
			for a := lo; a < hi; a++ {
				k := g.Target(a)
				if fixed[k] {
					continue
				}
				if key := g.ArcKey(a); key < dist[k] {
					dist[k] = key
					parentEdge[k] = g.ArcEdgeID(a)
					h.InsertOrDecrease(k, key)
					pushes++
					relaxations++
				}
			}
		}
	}
	if mtr != nil {
		*mtr = WorkMetrics{
			HeapPushes: pushes, HeapPops: pops,
			HeapFixes: pops, Relaxations: relaxations,
		}
	}
	return newForest(g, ids, nil)
}

// PrimLazy implements the simplified variant §IV analyses: instead of
// adjusting keys in place, every relaxation pushes a fresh (key, vertex)
// entry, and stale pops (already-fixed vertices) are skipped. Same
// O(m log n) bound with a larger heap; kept as a baseline because LLP-Prim's
// heap H has the same lazy discipline.
func PrimLazy(g *graph.CSR) *Forest { return primLazy(g, nil) }

func primLazy(g *graph.CSR, mtr *WorkMetrics) *Forest {
	n := g.NumVertices()
	fixed := make([]bool, n)
	dist := make([]uint64, n)
	parentEdge := make([]uint32, n)
	for i := range dist {
		dist[i] = par.InfKey
	}
	h := pq.NewLazyHeap(n)
	ids := make([]uint32, 0, n)
	var pushes, pops, stale, relaxations int64
	for s := 0; s < n; s++ {
		if fixed[s] {
			continue
		}
		dist[s] = 0
		h.Push(uint32(s), 0)
		pushes++
		for !h.Empty() {
			j, key := h.PopMin()
			pops++
			if fixed[j] || key != dist[j] {
				stale++
				continue // stale entry
			}
			fixed[j] = true
			if j != uint32(s) {
				ids = append(ids, parentEdge[j])
			}
			lo, hi := g.ArcRange(j)
			for a := lo; a < hi; a++ {
				k := g.Target(a)
				if fixed[k] {
					continue
				}
				if key := g.ArcKey(a); key < dist[k] {
					dist[k] = key
					parentEdge[k] = g.ArcEdgeID(a)
					h.Push(k, key)
					pushes++
					relaxations++
				}
			}
		}
	}
	if mtr != nil {
		*mtr = WorkMetrics{
			HeapPushes: pushes, HeapPops: pops, StalePops: stale,
			HeapFixes: pops - stale, Relaxations: relaxations,
		}
	}
	return newForest(g, ids, nil)
}

// PrimPairing is Prim's algorithm on a pairing heap with true decrease-key;
// used by the heap-choice ablation benchmark.
func PrimPairing(g *graph.CSR) *Forest {
	n := g.NumVertices()
	fixed := make([]bool, n)
	nodes := make([]*pq.PairingNode, n)
	parentEdge := make([]uint32, n)
	var h pq.PairingHeap
	ids := make([]uint32, 0, n)
	for s := 0; s < n; s++ {
		if fixed[s] {
			continue
		}
		nodes[s] = h.Push(uint32(s), 0)
		for !h.Empty() {
			j, _ := h.PopMin()
			nodes[j] = nil
			if fixed[j] {
				continue
			}
			fixed[j] = true
			if j != uint32(s) {
				ids = append(ids, parentEdge[j])
			}
			lo, hi := g.ArcRange(j)
			for a := lo; a < hi; a++ {
				k := g.Target(a)
				if fixed[k] {
					continue
				}
				key := g.ArcKey(a)
				switch {
				case nodes[k] == nil:
					nodes[k] = h.Push(k, key)
					parentEdge[k] = g.ArcEdgeID(a)
				case key < nodes[k].Key():
					h.DecreaseKey(nodes[k], key)
					parentEdge[k] = g.ArcEdgeID(a)
				}
			}
		}
	}
	return newForest(g, ids, nil)
}
