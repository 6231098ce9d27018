package graph

import (
	"fmt"
	"math/rand"

	"llpmst/internal/par"
)

// Graph transforms used when preparing external datasets: extracting the
// largest connected component (Kronecker samples are disconnected),
// relabelling vertices in BFS order for cache locality (the standard GBBS
// preprocessing for road networks), inducing subgraphs, and perturbing
// weights.

// InducedSubgraph returns the subgraph induced by the given vertex set,
// built with p workers, plus the mapping from new vertex ids to old ones.
// Vertices keep the relative order of the keep slice; edge weights are
// preserved (edge ids are renumbered).
func (g *CSR) InducedSubgraph(p int, keep []uint32) (*CSR, []uint32, error) {
	const absent = ^uint32(0)
	newID := make([]uint32, g.n)
	for i := range newID {
		newID[i] = absent
	}
	for i, v := range keep {
		if int(v) >= g.n {
			return nil, nil, fmt.Errorf("graph: subgraph vertex %d out of range", v)
		}
		if newID[v] != absent {
			return nil, nil, fmt.Errorf("graph: subgraph vertex %d listed twice", v)
		}
		newID[v] = uint32(i)
	}
	var edges []Edge
	for _, e := range g.edges {
		nu, nv := newID[e.U], newID[e.V]
		if nu != absent && nv != absent {
			edges = append(edges, Edge{U: nu, V: nv, W: e.W})
		}
	}
	sub, err := FromEdges(p, len(keep), edges)
	if err != nil {
		return nil, nil, err
	}
	old := make([]uint32, len(keep))
	copy(old, keep)
	return sub, old, nil
}

// LargestComponent returns the subgraph induced by the largest connected
// component (ties broken by smallest root id) and the old-id mapping.
func (g *CSR) LargestComponent(p int) (*CSR, []uint32, error) {
	labels, _ := g.Components()
	sizes := make(map[uint32]int)
	for _, l := range labels {
		sizes[l]++
	}
	best := uint32(0)
	bestSize := -1
	for l, s := range sizes {
		if s > bestSize || (s == bestSize && l < best) {
			best, bestSize = l, s
		}
	}
	keep := make([]uint32, 0, bestSize)
	for v, l := range labels {
		if l == best {
			keep = append(keep, uint32(v))
		}
	}
	return g.InducedSubgraph(p, keep)
}

// RelabelBFS returns an isomorphic graph whose vertices are renumbered in
// BFS order from vertex 0 (unreached components appended in id order), and
// the old-id mapping. BFS renumbering makes adjacent vertices close in
// memory — the cache-locality preprocessing step GBBS applies to road
// networks before benchmarking.
func (g *CSR) RelabelBFS(p int) (*CSR, []uint32, error) {
	g.adjacency()
	const unseen = ^uint32(0)
	order := make([]uint32, 0, g.n)
	pos := make([]uint32, g.n)
	for i := range pos {
		pos[i] = unseen
	}
	queue := make([]uint32, 0, 1024)
	for s := 0; s < g.n; s++ {
		if pos[s] != unseen {
			continue
		}
		pos[s] = uint32(len(order))
		order = append(order, uint32(s))
		queue = append(queue[:0], uint32(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			lo, hi := g.offsets[v], g.offsets[v+1]
			for a := lo; a < hi; a++ {
				t := g.targets[a]
				if pos[t] == unseen {
					pos[t] = uint32(len(order))
					order = append(order, t)
					queue = append(queue, t)
				}
			}
		}
	}
	edges := make([]Edge, len(g.edges))
	par.ForEach(p, len(edges), 8192, func(i int) {
		e := g.edges[i]
		edges[i] = Edge{U: pos[e.U], V: pos[e.V], W: e.W}
	})
	out, err := FromEdges(p, g.n, edges)
	if err != nil {
		return nil, nil, err
	}
	return out, order, nil
}

// PerturbWeights returns a copy of g whose weights are multiplied by
// independent factors uniform in [1-eps, 1+eps); with eps > 0 this breaks
// large classes of exactly-tied weights in integer-weighted datasets (the
// canonical edge-id tie-break still guarantees uniqueness either way).
// Deterministic in seed.
func (g *CSR) PerturbWeights(p int, eps float64, seed int64) (*CSR, error) {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, len(g.edges))
	for i, e := range g.edges {
		f := 1 + eps*(2*rng.Float64()-1)
		edges[i] = Edge{U: e.U, V: e.V, W: float32(float64(e.W) * f)}
	}
	return FromEdges(p, g.n, edges)
}
