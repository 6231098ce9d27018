package graph_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
	"llpmst/internal/mst"
	"llpmst/internal/par"
)

// load writes g in the binary format and reads it back with p workers, as
// an upload arrives: a loaded graph whose adjacency is not built yet.
func load(t *testing.T, p int, g *graph.CSR) *graph.CSR {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := graph.ReadBinary(p, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if graph.AdjacencyBuilt(loaded) {
		t.Fatal("ReadBinary built the adjacency")
	}
	return loaded
}

// TestDeferredEdgeReadersLeaveAdjacencyUnbuilt: the edge list, the arc
// count and the per-vertex minimum keys come from the edge list alone, and
// MinArcKeys equals the per-arc minimum once the adjacency exists.
func TestDeferredEdgeReadersLeaveAdjacencyUnbuilt(t *testing.T) {
	src := gen.RMAT(1, 12, 16, gen.WeightUniform, 5)
	for _, p := range []int{1, 2, 8} {
		g := load(t, p, src)
		if len(g.Edges()) != src.NumEdges() || g.NumArcs() != src.NumArcs() {
			t.Fatalf("p=%d: m=%d arcs=%d, want %d and %d", p, len(g.Edges()), g.NumArcs(), src.NumEdges(), src.NumArcs())
		}
		mwe := g.MinArcKeys(p)
		if graph.AdjacencyBuilt(g) {
			t.Fatalf("p=%d: Edges, NumArcs or MinArcKeys built the adjacency", p)
		}
		for v := uint32(0); int(v) < g.NumVertices(); v++ {
			want := par.InfKey
			lo, hi := g.ArcRange(v)
			for a := lo; a < hi; a++ {
				want = min(want, g.ArcKey(a))
			}
			if mwe[v] != want {
				t.Fatalf("p=%d: MinArcKeys[%d] = %#x, per-arc minimum %#x", p, v, mwe[v], want)
			}
		}
		if !graph.AdjacencyBuilt(g) {
			t.Fatalf("p=%d: ArcRange left the adjacency unbuilt", p)
		}
	}
}

// TestDeferredBuildRunsOnce races eight goroutines on a loaded graph's
// first ArcRange: one build serves them all, and every range matches the
// eagerly built graph's. Run under -race, this is the build's publication
// check.
func TestDeferredBuildRunsOnce(t *testing.T) {
	src := gen.RMAT(1, 12, 16, gen.WeightUniform, 9)
	g := load(t, 2, src)
	const goroutines = 8
	got := make([][2]int64, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo, hi := g.ArcRange(uint32(i))
			got[i] = [2]int64{lo, hi}
		}(i)
	}
	wg.Wait()
	if builds := graph.AdjacencyBuilds(g); builds != 1 {
		t.Fatalf("%d builds for one graph, want 1", builds)
	}
	for i, r := range got {
		if lo, hi := src.ArcRange(uint32(i)); r != [2]int64{lo, hi} {
			t.Fatalf("vertex %d: ArcRange %v, eager build gives [%d %d]", i, r, lo, hi)
		}
	}
}

// TestDeferredBuildFailure feeds the deferred build edge lists that skipped
// the load-time check: one FromEdges rejects, and one (a self-loop) that
// FromEdges accepts but whose arcs no longer match the edge list, so only
// Validate can reject it. Validate returns the build's error, and every
// later adjacency read panics with that same error.
func TestDeferredBuildFailure(t *testing.T) {
	cases := map[string][]graph.Edge{
		"out-of-range endpoint": {{U: 0, V: 1, W: 1}, {U: 1, V: 7, W: 2}},
		"unchecked self-loop":   {{U: 0, V: 1, W: 1}, {U: 2, V: 2, W: 2}},
	}
	readers := map[string]func(g *graph.CSR){
		"ArcRange":   func(g *graph.CSR) { g.ArcRange(0) },
		"Degree":     func(g *graph.CSR) { g.Degree(1) },
		"Neighbors":  func(g *graph.CSR) { g.Neighbors(0, func(int64, uint32, float32, uint32) {}) },
		"Components": func(g *graph.CSR) { g.Components() },
		"Stats":      func(g *graph.CSR) { g.ComputeStats() },
		"RelabelBFS": func(g *graph.CSR) { _, _, _ = g.RelabelBFS(1) },
		"WriteMETIS": func(g *graph.CSR) { _ = graph.WriteMETIS(io.Discard, g) },
	}
	for name, edges := range cases {
		g := graph.DeferEdges(1, 3, edges)
		err := g.Validate()
		if err == nil {
			t.Fatalf("%s: deferred build accepted", name)
		}
		if again := g.Validate(); again != err {
			t.Fatalf("%s: second Validate returned %v, first %v", name, again, err)
		}
		for reader, read := range readers {
			if r := recovered(func() { read(g) }); r != err {
				t.Fatalf("%s: %s panicked with %v, want the build's error %v", name, reader, r, err)
			}
		}
		if graph.AdjacencyBuilt(g) {
			t.Fatalf("%s: a failed build left arc arrays behind", name)
		}
		if builds := graph.AdjacencyBuilds(g); builds != 1 {
			t.Fatalf("%s: %d builds, want 1: a failed build is not retried", name, builds)
		}
	}
}

func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestServedPathLeavesAdjacencyUnbuilt walks an upload through the served
// path: every edge-list backend, CheckForest and VerifyMinimum answer the
// loaded graph without building its adjacency; a later Prim run builds it
// and returns the same forest.
func TestServedPathLeavesAdjacencyUnbuilt(t *testing.T) {
	g := load(t, 2, gen.RMAT(1, 10, 16, gen.WeightUniform, 3))
	want, err := mst.LLPBoruvka(g, mst.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := mst.CheckForest(g, want); err != nil {
		t.Fatal(err)
	}
	if err := mst.VerifyMinimum(g, want); err != nil {
		t.Fatal(err)
	}
	edgeList := []mst.Algorithm{
		mst.AlgBoruvka, mst.AlgParallelBoruvka, mst.AlgSemiringBoruvka, mst.AlgKruskal,
	}
	for _, alg := range edgeList {
		f, err := mst.Run(alg, g, mst.Options{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !f.Equal(want) {
			t.Fatalf("%s: forest differs from LLP-Boruvka's", alg)
		}
	}
	if graph.AdjacencyBuilt(g) {
		t.Fatal("the edge-list path built the adjacency")
	}
	prim := mst.Prim(g)
	if !graph.AdjacencyBuilt(g) {
		t.Fatal("Prim ran without building the adjacency")
	}
	if !prim.Equal(want) {
		t.Fatalf("Prim's forest %v differs from LLP-Boruvka's %v", prim, want)
	}
}
