package graph

import (
	"fmt"
	"math"
)

// Components labels the connected components of g with a sequential BFS and
// returns (labels, count). Labels are component-root vertex ids, so two
// vertices are connected iff their labels are equal. Used by validators and
// tests; the parallel algorithms have their own labelling.
func (g *CSR) Components() ([]uint32, int) {
	const unset = ^uint32(0)
	label := make([]uint32, g.n)
	for i := range label {
		label[i] = unset
	}
	var queue []uint32
	count := 0
	for s := 0; s < g.n; s++ {
		if label[s] != unset {
			continue
		}
		count++
		root := uint32(s)
		label[s] = root
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			lo, hi := g.offsets[v], g.offsets[v+1]
			for a := lo; a < hi; a++ {
				t := g.targets[a]
				if label[t] == unset {
					label[t] = root
					queue = append(queue, t)
				}
			}
		}
	}
	return label, count
}

// Connected reports whether g is a single connected component. Empty graphs
// are connected; the single-vertex graph is connected.
func (g *CSR) Connected() bool {
	if g.n <= 1 {
		return true
	}
	_, c := g.Components()
	return c == 1
}

// Validate performs internal consistency checks on g and returns the first
// problem found, or nil: out-of-range arc endpoints, asymmetric CSR arcs
// (every undirected edge must appear as exactly two dual arcs), and
// non-finite or negative weights are all rejected. Every file loader
// (ReadDIMACS, ReadMatrixMarket, ReadMETIS, ReadBinary) runs it before
// returning, so a parsed graph is structurally trustworthy.
func Validate(g *CSR) error { return g.Validate() }

// Validate is the method form of the package-level Validate.
func (g *CSR) Validate() error {
	if len(g.offsets) != g.n+1 {
		return fmt.Errorf("graph: offsets length %d, want n+1=%d", len(g.offsets), g.n+1)
	}
	if g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	if g.offsets[g.n] != int64(len(g.targets)) {
		return fmt.Errorf("graph: offsets[n] = %d, want %d", g.offsets[g.n], len(g.targets))
	}
	if len(g.weights) != len(g.targets) || len(g.eids) != len(g.targets) {
		return fmt.Errorf("graph: parallel arc arrays disagree in length")
	}
	if len(g.targets) != 2*len(g.edges) {
		return fmt.Errorf("graph: %d arcs for %d edges, want exactly 2 per edge", len(g.targets), len(g.edges))
	}
	for v := 0; v < g.n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	arcSeen := make([]int, len(g.edges))
	for v := uint32(0); int(v) < g.n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		for a := lo; a < hi; a++ {
			t := g.targets[a]
			if int(t) >= g.n {
				return fmt.Errorf("graph: arc %d target %d out of range", a, t)
			}
			id := g.eids[a]
			if int(id) >= len(g.edges) {
				return fmt.Errorf("graph: arc %d edge id %d out of range", a, id)
			}
			e := g.edges[id]
			if g.weights[a] != e.W {
				return fmt.Errorf("graph: arc %d weight %v disagrees with edge %d weight %v", a, g.weights[a], id, e.W)
			}
			if !(e.U == v && e.V == t) && !(e.V == v && e.U == t) {
				return fmt.Errorf("graph: arc %d (%d->%d) does not match edge %d (%d,%d)", a, v, t, id, e.U, e.V)
			}
			arcSeen[id]++
		}
	}
	for id, c := range arcSeen {
		if c != 2 {
			return fmt.Errorf("graph: edge %d appears in %d arcs, want 2", id, c)
		}
	}
	for id, e := range g.edges {
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d is a self-loop (%d,%d)", id, e.U, e.V)
		}
		if e.W < 0 || e.W != e.W || math.IsInf(float64(e.W), 0) {
			return fmt.Errorf("graph: edge %d has invalid weight %v", id, e.W)
		}
	}
	return nil
}
