// Package graph provides the undirected weighted graph representation shared
// by every algorithm in this repository: a compressed-sparse-row (CSR)
// structure with a canonical edge list, plus builders, I/O, validation and
// statistics. It plays the role of the graph layers of Galois and GBBS that
// the paper's implementations sit on.
//
// FromEdges builds a CSR's arc arrays at once. The file loaders check the
// edge list and leave the arc arrays to be built on first adjacency use,
// by FromEdges and then Validate, so an algorithm that reads only the edge
// list (Kruskal, the Borůvka family, LLP-Boruvka) never pays for them. Every
// adjacency an algorithm reads was built by FromEdges from checked edges
// and passed Validate.
//
// Every builder and loader takes a worker count p. An explicit p > 0 is
// used as given; p <= 0 is auto, sized by the number of edges
// (par.WorkersFor), so inputs below a million edges build on one worker.
//
// Weights are finite non-negative float32 values. The paper assumes distinct
// edge weights; rather than requiring that of inputs, every comparison in
// this repository uses the packed total order (weight, edge id) from
// internal/par, which makes the minimum spanning forest unique for any input.
package graph

import (
	"fmt"
	"math"
	"sync"

	"llpmst/internal/par"
)

// Edge is one undirected edge. U and V are endpoint vertex ids, W the weight.
type Edge struct {
	U, V uint32
	W    float32
}

// CSR is an immutable undirected weighted graph in compressed sparse row
// form. Each undirected edge {u,v} appears as two directed arcs, u→v and
// v→u, both carrying the same canonical edge id. The zero value is an empty
// graph. A file loader's CSR gets its arc arrays on first adjacency use
// (see loadEdges).
type CSR struct {
	n     int
	edges []Edge // len m; edges[eid] is the canonical edge

	// deferred marks a loader's graph: the arc arrays below are built on
	// first use, under adjOnce, with buildP workers. adjErr is a failed
	// build's error; the arrays then stay nil and every read panics. builds
	// counts the builds run, for the tests: adjOnce keeps it at most 1.
	deferred bool
	buildP   int
	adjOnce  sync.Once
	adjErr   error
	builds   int

	offsets []int64   // len n+1; arcs of v are [offsets[v], offsets[v+1])
	targets []uint32  // len 2m; arc heads
	weights []float32 // len 2m; arc weights (duplicated per direction)
	eids    []uint32  // len 2m; canonical undirected edge id per arc

	mweOnce sync.Once
	mwe     []uint64 // lazily computed minimum-arc-key per vertex
}

// deferredCSR returns the CSR of n vertices over the checked edge list
// edges, whose arc arrays p workers build on first use.
func deferredCSR(p, n int, edges []Edge) *CSR {
	return &CSR{n: n, edges: edges, deferred: true, buildP: p}
}

// adjacency makes the arc arrays readable. Every reader of them calls it
// first; on an eagerly built graph it costs one branch.
func (g *CSR) adjacency() {
	if g.deferred {
		g.buildAdjacency()
	}
}

// buildAdjacency runs the deferred build once and panics with its error,
// on this and every later call, if it failed, so no nil or partial arrays
// are ever read.
func (g *CSR) buildAdjacency() {
	g.adjOnce.Do(g.build)
	if g.adjErr != nil {
		panic(g.adjErr)
	}
}

// build is the deferred adjacency build: FromEdges over the checked edge
// list, then Validate's exact checks against that same list.
func (g *CSR) build() {
	g.builds++
	b, err := FromEdges(g.buildP, g.n, g.edges)
	if err != nil {
		g.adjErr = err
		return
	}
	g.offsets, g.targets, g.weights, g.eids = b.offsets, b.targets, b.weights, b.eids
	if err := g.validate(); err != nil {
		g.offsets, g.targets, g.weights, g.eids = nil, nil, nil, nil
		g.adjErr = err
	}
}

// NumVertices returns n, the number of vertices.
func (g *CSR) NumVertices() int { return g.n }

// NumEdges returns m, the number of undirected edges.
func (g *CSR) NumEdges() int { return len(g.edges) }

// NumArcs returns 2m, the number of directed arcs, built or not.
func (g *CSR) NumArcs() int { return 2 * len(g.edges) }

// Degree returns the number of arcs out of v (multi-edges counted).
func (g *CSR) Degree(v uint32) int {
	g.adjacency()
	return int(g.offsets[v+1] - g.offsets[v])
}

// ArcRange returns the half-open arc index range of vertex v. Arc index a
// addresses Target(a), ArcWeight(a), ArcEdgeID(a) and ArcKey(a).
func (g *CSR) ArcRange(v uint32) (lo, hi int64) {
	g.adjacency()
	return g.offsets[v], g.offsets[v+1]
}

// Target returns the head vertex of arc a, an index ArcRange returned.
func (g *CSR) Target(a int64) uint32 { return g.targets[a] }

// ArcWeight returns the weight of arc a, an index ArcRange returned.
func (g *CSR) ArcWeight(a int64) float32 { return g.weights[a] }

// ArcEdgeID returns the canonical undirected edge id of arc a, an index
// ArcRange returned.
func (g *CSR) ArcEdgeID(a int64) uint32 { return g.eids[a] }

// ArcKey returns the packed (weight, edge id) total-order key of arc a, an
// index ArcRange returned.
func (g *CSR) ArcKey(a int64) uint64 {
	return par.PackKey(g.weights[a], g.eids[a])
}

// Edge returns the canonical edge with the given id.
func (g *CSR) Edge(id uint32) Edge { return g.edges[id] }

// Edges returns the canonical edge list. The caller must not modify it.
func (g *CSR) Edges() []Edge { return g.edges }

// EdgeKey returns the packed total-order key of edge id.
func (g *CSR) EdgeKey(id uint32) uint64 {
	return par.PackKey(g.edges[id].W, id)
}

// Neighbors calls fn(arc index, target, weight, edge id) for every arc out of
// v, in storage order. Convenience wrapper; hot loops should use ArcRange
// with direct accessor calls instead.
func (g *CSR) Neighbors(v uint32, fn func(a int64, to uint32, w float32, eid uint32)) {
	lo, hi := g.ArcRange(v)
	for a := lo; a < hi; a++ {
		fn(a, g.targets[a], g.weights[a], g.eids[a])
	}
}

// MinArcKeys returns mwe[v], the packed (weight, edge id) key of the
// minimum-weight edge incident to each vertex (par.InfKey for isolated
// vertices), computing it once with p workers on first use and caching it.
// The paper's LLP-Prim "requires every vertex to know its minimum weight
// edge" and notes the set "can be computed when the graph is input" (§V.A);
// caching on the immutable graph realizes that accounting. It reads the
// edge list only, so it leaves a loaded graph's adjacency unbuilt. The
// caller must not modify the returned slice.
func (g *CSR) MinArcKeys(p int) []uint64 {
	g.mweOnce.Do(func() { g.mwe = minEdgeKeys(p, g.n, g.edges) })
	return g.mwe
}

// minEdgeKeys computes MinArcKeys from the edge list without atomics. As in
// FromEdges, the list is cut into contiguous chunks; each chunk takes its
// edges' minima into its own row of n keys (chunk 0's row is the result),
// and the rows are then merged per vertex. Edge i's key is PackKey(W, i),
// the key both of its arcs carry.
func minEdgeKeys(p, n int, edges []Edge) []uint64 {
	p = par.WorkersFor(p, len(edges))
	m := len(edges)
	chunks := edgeChunks(p, n, m)
	mwe := make([]uint64, n)
	rows := make([]uint64, (chunks-1)*n)
	row := func(c int) []uint64 {
		if c == 0 {
			return mwe
		}
		return rows[(c-1)*n : c*n]
	}
	par.ForEach(p, chunks, 1, func(c int) {
		best := row(c)
		for v := range best {
			best[v] = par.InfKey
		}
		lo := c * m / chunks
		for i, e := range edges[lo : (c+1)*m/chunks] {
			// Branch-free: whether k lowers a cell is a coin flip on
			// random weights.
			k := par.PackKey(e.W, uint32(lo+i))
			best[e.U] = min(best[e.U], k)
			best[e.V] = min(best[e.V], k)
		}
	})
	if chunks > 1 {
		par.For(p, n, 8192, func(lo, hi int) {
			for c := 1; c < chunks; c++ {
				r := row(c)
				for v := lo; v < hi; v++ {
					mwe[v] = min(mwe[v], r[v])
				}
			}
		})
	}
	return mwe
}

// TotalWeight returns the sum of all edge weights in float64 precision.
func (g *CSR) TotalWeight() float64 {
	var s float64
	for _, e := range g.edges {
		s += float64(e.W)
	}
	return s
}

// FromEdges builds a CSR graph with n vertices from the given undirected
// edge list using p workers. Self-loops are dropped (they can never be in a
// spanning forest); parallel edges are kept — the packed total order
// disambiguates them. Endpoints must be < n. The input slice is retained as
// the canonical edge list (with self-loops compacted away); callers must not
// modify it afterwards.
//
// The build is deterministic. The edge list is cut into contiguous chunks,
// and one pass per chunk checks its edges and counts them into the chunk's
// own degree row. Summed across the chunks per vertex, the rows give the
// offsets; their exclusive prefix sums, plus the vertex's offset, give each
// chunk its own arc cursors, which start where the previous chunk's arcs of
// that vertex end. The chunks then scatter concurrently, without atomics,
// and every vertex's arcs come out in edge-list order: the sequential
// fill's arc order, for any p.
func FromEdges(p, n int, edges []Edge, opts ...BuildOption) (*CSR, error) {
	var cfg buildConfig
	for _, o := range opts {
		o(&cfg)
	}
	p = par.WorkersFor(p, len(edges))
	m0 := len(edges)
	chunks := edgeChunks(p, n, m0)
	chunk := func(c int) []Edge { return edges[c*m0/chunks : (c+1)*m0/chunks] }
	rows := make([]int64, chunks*n)
	first, dropped, err := scanEdges(p, n, edges, chunks, rows)
	if err != nil {
		return nil, err
	}
	kept := edges
	if dropped > 0 {
		kept = make([]Edge, m0-dropped)
	}
	m := len(kept)
	offsets := make([]int64, n+1)
	par.For(p, n, 8192, func(lo, hi int) {
		for c := 0; c < chunks; c++ {
			row := rows[c*n : (c+1)*n]
			for v := lo; v < hi; v++ {
				row[v], offsets[v] = offsets[v], offsets[v]+row[v]
			}
		}
	})
	offsets[n] = par.ExclusiveScan(p, offsets[:n])
	par.For(p, n, 8192, func(lo, hi int) {
		for c := 0; c < chunks; c++ {
			row := rows[c*n : (c+1)*n]
			for v := lo; v < hi; v++ {
				row[v] += offsets[v]
			}
		}
	})
	g := &CSR{
		n: n, offsets: offsets, edges: kept,
		targets: make([]uint32, 2*m), weights: make([]float32, 2*m), eids: make([]uint32, 2*m),
	}
	par.ForEach(p, chunks, 1, func(c int) {
		cursor := rows[c*n : (c+1)*n]
		id := first[c]
		for _, e := range chunk(c) {
			if e.U == e.V {
				continue
			}
			a := cursor[e.U]
			cursor[e.U]++
			g.targets[a], g.weights[a], g.eids[a] = e.V, e.W, id
			b := cursor[e.V]
			cursor[e.V]++
			g.targets[b], g.weights[b], g.eids[b] = e.U, e.W, id
			if dropped > 0 {
				kept[id] = e
			}
			id++
		}
	})
	if cfg.sortAdj {
		par.ForEach(p, n, 64, func(v int) {
			lo, hi := g.offsets[v], g.offsets[v+1]
			sortArcs(g.targets[lo:hi], g.weights[lo:hi], g.eids[lo:hi])
		})
	}
	return g, nil
}

// edgeChunks is the number of contiguous chunks FromEdges cuts m edges into
// for p workers: one below 2^15 edges; above, one per worker, but no more
// than the average degree, so per-chunk vertex rows (chunks·n cells) stay
// within 2m.
func edgeChunks(p, n, m int) int {
	if p > 1 && m >= 1<<15 {
		return max(1, min(p, 2*m/max(n, 1)))
	}
	return 1
}

// scanEdges is FromEdges' first pass, which the loaders share: one pass per
// chunk checks its edges and, when rows is non-nil, counts each kept edge
// into the chunk's own degree row rows[c·n : (c+1)·n]. It returns first[c],
// the canonical id of chunk c's first kept edge, and the number of
// self-loops, which the canonical edge list drops.
func scanEdges(p, n int, edges []Edge, chunks int, rows []int64) (first []uint32, dropped int, err error) {
	m0 := len(edges)
	bad := make([]int, chunks)
	loops := make([]int, chunks)
	par.ForEach(p, chunks, 1, func(c int) {
		var row []int64
		if rows != nil {
			row = rows[c*n : (c+1)*n]
		}
		nbad, nloops := 0, 0
		for _, e := range edges[c*m0/chunks : (c+1)*m0/chunks] {
			switch {
			// NaN fails both weight comparisons, ±Inf and negatives one.
			case int(e.U) >= n || int(e.V) >= n || !(e.W >= 0 && e.W <= math.MaxFloat32):
				nbad++
			case e.U == e.V:
				nloops++
			case row != nil:
				row[e.U]++
				row[e.V]++
			}
		}
		bad[c], loops[c] = nbad, nloops
	})
	first = make([]uint32, chunks)
	nbad := 0
	for c := range bad {
		nbad += bad[c]
		first[c] = uint32(c*m0/chunks - dropped)
		dropped += loops[c]
	}
	if nbad > 0 {
		return nil, 0, fmt.Errorf("graph: %d edges with out-of-range endpoints or invalid weights (n=%d)", nbad, n)
	}
	return first, dropped, nil
}

// MustFromEdges is FromEdges that panics on error; for tests and generators
// whose inputs are constructed correct.
func MustFromEdges(p, n int, edges []Edge, opts ...BuildOption) *CSR {
	g, err := FromEdges(p, n, edges, opts...)
	if err != nil {
		panic(err)
	}
	return g
}

// BuildOption configures FromEdges.
type BuildOption func(*buildConfig)

type buildConfig struct {
	sortAdj bool
}

// WithSortedAdjacency sorts each adjacency list by (target, weight). Useful
// for reproducible traversal orders in tests.
func WithSortedAdjacency() BuildOption {
	return func(c *buildConfig) { c.sortAdj = true }
}

func sortArcs(targets []uint32, weights []float32, eids []uint32) {
	// Insertion sort: adjacency lists are short in our workloads, and this
	// path is test/debug only.
	for i := 1; i < len(targets); i++ {
		t, w, e := targets[i], weights[i], eids[i]
		j := i - 1
		for j >= 0 && (targets[j] > t || (targets[j] == t && weights[j] > w)) {
			targets[j+1], weights[j+1], eids[j+1] = targets[j], weights[j], eids[j]
			j--
		}
		targets[j+1], weights[j+1], eids[j+1] = t, w, e
	}
}
