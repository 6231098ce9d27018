package mst

import (
	"context"
	"fmt"
	"slices"

	"llpmst/internal/graph"
	"llpmst/internal/llp"
	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// Forest is a minimum spanning forest: the canonical edge ids of the chosen
// edges (sorted ascending), their total weight, and the number of trees
// (connected components of the input, counting isolated vertices).
type Forest struct {
	// N is the number of vertices of the input graph.
	N int
	// EdgeIDs are the chosen edges' canonical ids, sorted ascending.
	EdgeIDs []uint32
	// Weight is the total weight of the chosen edges (float64 accumulation).
	Weight float64
	// Trees is the number of trees in the forest, i.e. the number of
	// connected components of the input graph.
	Trees int
}

// ForestFromEdgeIDs materializes a Forest from a raw edge id list (e.g. the
// ids a server reply lists), leaving the caller's slice untouched. The ids
// are trusted to form a forest; use CheckForest to verify.
func ForestFromEdgeIDs(g *graph.CSR, ids []uint32) *Forest {
	return newForest(g, slices.Clone(ids), nil)
}

// newForest canonicalizes a raw edge id list into a Forest that keeps ids.
// scratch is the id sort's ping-pong buffer (see sortIDs): the workspace
// algorithms pass their chosen-ids buffer, free once its ids are cloned out;
// nil allocates one.
func newForest(g *graph.CSR, ids, scratch []uint32) *Forest {
	sortIDs(ids, scratch)
	var w float64
	for _, id := range ids {
		w += float64(g.Edge(id).W)
	}
	return &Forest{
		N:       g.NumVertices(),
		EdgeIDs: ids,
		Weight:  w,
		Trees:   g.NumVertices() - len(ids),
	}
}

// radixBits is the digit width: 2^11 counters fit in L1, and three passes
// cover every uint32, two every id below 2^22.
const radixBits = 11

// sortIDs sorts ids ascending, with the result slices.Sort would give: an
// LSD radix sort in linear time, running only as many passes as the largest
// id needs. scratch, when at least len(ids) long, is the ping-pong buffer;
// otherwise one is allocated.
func sortIDs(ids, scratch []uint32) {
	n := len(ids)
	if n < 2 {
		return
	}
	if len(scratch) < n {
		scratch = make([]uint32, n)
	}
	var top uint32
	for _, id := range ids {
		top = max(top, id)
	}
	const mask = 1<<radixBits - 1
	var count [1 << radixBits]int
	src, dst := ids, scratch[:n]
	for shift := 0; shift < 32 && (shift == 0 || top>>shift != 0); shift += radixBits {
		clear(count[:])
		for _, id := range src {
			count[id>>shift&mask]++
		}
		at := 0
		for d, c := range count {
			count[d] = at
			at += c
		}
		for _, id := range src {
			d := id >> shift & mask
			dst[count[d]] = id
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ids[0] {
		copy(ids, src)
	}
}

// Equal reports whether two forests choose exactly the same edge set.
func (f *Forest) Equal(other *Forest) bool {
	return f.N == other.N && slices.Equal(f.EdgeIDs, other.EdgeIDs)
}

// String summarizes the forest.
func (f *Forest) String() string {
	return fmt.Sprintf("forest{n=%d edges=%d trees=%d weight=%g}", f.N, len(f.EdgeIDs), f.Trees, f.Weight)
}

// Spanning reports whether the forest spans a connected input as a single
// tree.
func (f *Forest) Spanning() bool { return f.Trees == 1 }

// ParentArray returns the forest as rooted parent pointers: parent[v] is
// v's parent vertex on the path to its tree's root, and -1 at roots. The
// tree containing root is rooted there; every other tree is rooted at its
// smallest vertex id. This is the "parent structure of the minimum spanning
// tree" Algorithm 2 maintains, reconstructed from the edge set by BFS.
func (f *Forest) ParentArray(g *graph.CSR, root uint32) []int32 {
	n := g.NumVertices()
	adjOff := make([]int32, n+1)
	for _, id := range f.EdgeIDs {
		e := g.Edge(id)
		adjOff[e.U+1]++
		adjOff[e.V+1]++
	}
	for i := 0; i < n; i++ {
		adjOff[i+1] += adjOff[i]
	}
	adj := make([]uint32, adjOff[n])
	cursor := make([]int32, n)
	copy(cursor, adjOff[:n])
	for _, id := range f.EdgeIDs {
		e := g.Edge(id)
		adj[cursor[e.U]] = e.V
		cursor[e.U]++
		adj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	const unseen = int32(-2)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = unseen
	}
	queue := make([]uint32, 0, 1024)
	bfs := func(s uint32) {
		parent[s] = -1
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, t := range adj[adjOff[v]:adjOff[v+1]] {
				if parent[t] == unseen {
					parent[t] = int32(v)
					queue = append(queue, t)
				}
			}
		}
	}
	if int(root) < n {
		bfs(root)
	}
	for s := uint32(0); int(s) < n; s++ {
		if parent[s] == unseen {
			bfs(s)
		}
	}
	return parent
}

// Options configures the parallel algorithms and the ablation switches for
// the design choices DESIGN.md calls out. The zero value is the default
// configuration, with an auto worker count.
type Options struct {
	// Workers is the number of goroutines. An explicit count is used as
	// given. <= 0 means auto: one worker per 2^19 elements of n+m, at least
	// one and at most GOMAXPROCS (par.WorkersFor), so graphs below about a
	// million elements run on one worker.
	Workers int

	// NoEarlyFix disables LLP-Prim's MWE early fixing (ablation): vertices
	// are then only fixed by heap pops, degenerating LLP-Prim into a lazy
	// Prim. Measures the contribution of §V.A's "second way of becoming
	// fixed".
	NoEarlyFix bool

	// NoStaging disables LLP-Prim's Q staging set (ablation): relaxations
	// push into the heap immediately instead of waiting for the R set to
	// drain, re-creating the heap churn the paper's Q set avoids.
	NoStaging bool

	// JumpMode selects the LLP driver for LLP-Boruvka's pointer jumping.
	// Default is llp.ModeAsync, the paper's "little or no synchronization"
	// mode; llp.ModeRound gives the barrier-synchronized variant and
	// llp.ModeSequential a serial one (for the ablation bench).
	JumpMode llp.Mode

	// Metrics, when non-nil, receives machine-independent operation counts
	// for the run (heap traffic, early fixes, rounds, ...). See WorkMetrics.
	Metrics *WorkMetrics

	// Ctx, when non-nil, is polled cooperatively by the algorithms: at
	// phase boundaries and (strided) at work-item granularity in the
	// parallel inner loops. A cancelled run stops promptly and returns the
	// partial forest built so far plus an error wrapping ctx.Err(). A nil
	// Ctx costs nothing. See RunCtx for the usual entry point.
	Ctx context.Context

	// Observer, when non-nil, receives phase spans and scheduler/algorithm
	// counters for the run (see internal/obs). When nil, a Collector
	// carried by Ctx (obs.NewContext) is used, else the free no-op — the
	// hot paths are instrumented unconditionally at no cost.
	Observer obs.Collector

	// Workspace, when non-nil, supplies all O(n+m) scratch state of the
	// parallel algorithms from a reusable arena instead of fresh
	// allocations, so a caller running repeated queries reaches O(1)
	// steady-state allocations per run (see Workspace). When nil, scratch
	// is drawn from an internal sync.Pool — still reused across calls
	// process-wide, and safe for any number of concurrent runs. A
	// Workspace serves one run at a time; sharing it across simultaneous
	// runs panics.
	Workspace *Workspace
}

// workers resolves o.Workers for a run on g: an explicit count unchanged,
// auto sized by n+m (see par.WorkersFor).
func (o Options) workers(g *graph.CSR) int {
	return par.WorkersFor(o.Workers, g.NumVertices()+g.NumEdges())
}

// Algorithm identifies one of the implemented MSF algorithms, for harness
// registries.
type Algorithm string

// The implemented algorithms.
const (
	AlgPrim            Algorithm = "prim"           // Algorithm 2, indexed heap
	AlgPrimLazy        Algorithm = "prim-lazy"      // §IV simplified analysis variant
	AlgLLPPrim         Algorithm = "llp-prim"       // Algorithm 5, sequential (1T)
	AlgLLPPrimParallel Algorithm = "llp-prim-par"   // Algorithm 5, parallel frontier waves
	AlgLLPPrimAsync    Algorithm = "llp-prim-async" // Algorithm 5, async work-stealing bag
	AlgBoruvka         Algorithm = "boruvka"        // Algorithm 3, sequential BFS-based
	AlgParallelBoruvka Algorithm = "boruvka-par"    // GBBS-style parallel baseline
	AlgLLPBoruvka      Algorithm = "llp-boruvka"    // Algorithm 6
	AlgSemiringBoruvka Algorithm = "semi-boruvka"   // min-plus sparse-matrix backend
	AlgKruskal         Algorithm = "kruskal"        // sort + union-find
)

// Algorithms lists every implemented algorithm in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgPrim, AlgPrimLazy, AlgLLPPrim, AlgLLPPrimParallel, AlgLLPPrimAsync,
		AlgBoruvka, AlgParallelBoruvka, AlgLLPBoruvka, AlgSemiringBoruvka,
		AlgKruskal,
	}
}

// Run dispatches to the named algorithm, honoring opts.Metrics for the
// algorithms whose public helper takes no Options. A pre-cancelled opts.Ctx
// returns before any work; cancellation granularity beyond that is
// per-algorithm — the LLP/parallel family polls at work-item granularity,
// the sequential baselines (Prim, Kruskal, ...) only between whole runs.
func Run(alg Algorithm, g *graph.CSR, opts Options) (*Forest, error) {
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, fmt.Errorf("mst: %s: %w", alg, err)
	}
	switch alg {
	case AlgPrim:
		return primIndexed(g, opts.Metrics), nil
	case AlgPrimLazy:
		return primLazy(g, opts.Metrics), nil
	case AlgLLPPrim:
		return LLPPrim(g, opts)
	case AlgLLPPrimParallel:
		return LLPPrimParallel(g, opts)
	case AlgLLPPrimAsync:
		return LLPPrimAsync(g, opts)
	case AlgBoruvka:
		return boruvka(g, opts.Metrics), nil
	case AlgParallelBoruvka:
		return ParallelBoruvka(g, opts)
	case AlgLLPBoruvka:
		return LLPBoruvka(g, opts)
	case AlgSemiringBoruvka:
		return SemiringBoruvka(g, opts)
	case AlgKruskal:
		return kruskal(g, opts.Metrics), nil
	default:
		return nil, fmt.Errorf("mst: unknown algorithm %q", alg)
	}
}

// minWeightEdges returns mwe[v]: the packed key of the minimum-weight edge
// incident to each vertex (InfKey for isolated vertices). §V.A: "this
// algorithm requires every vertex to know its minimum weight edge... the
// set MWE can be computed when the graph is input" — so it is computed once
// per graph and cached (see graph.CSR.MinArcKeys).
func minWeightEdges(p int, g *graph.CSR) []uint64 {
	return g.MinArcKeys(p)
}
