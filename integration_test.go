package llpmst

// End-to-end integration tests: generate → persist → reload → solve with
// every algorithm → cross-check → certify, across morphologies and worker
// counts, all through the public API.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

func TestEndToEndPipeline(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"road", GenerateRoadNetwork(40, 40, 0.25, 101)},
		{"rmat", GenerateRMAT(10, 8, WeightUniform, 102)},
		{"rmat-ties", GenerateRMAT(9, 8, WeightInteger, 103)},
		{"geo", GenerateGeometric(1200, 2*GeometricConnectivityRadius(1200), 104)},
		{"er", GenerateErdosRenyi(1500, 6000, WeightInteger, 105)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Persist and reload through both formats.
			dir := t.TempDir()
			binPath := filepath.Join(dir, "g.llpg")
			if err := SaveBinary(binPath, tc.g); err != nil {
				t.Fatal(err)
			}
			g, err := LoadGraph(binPath)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteDIMACS(&buf, tc.g); err != nil {
				t.Fatal(err)
			}
			gText, err := ReadDIMACS(&buf)
			if err != nil {
				t.Fatal(err)
			}
			// The reloaded graphs must yield the same MSF weight (edge ids
			// may be renumbered by text round trips; weight is invariant).
			oracle := Kruskal(g)
			if w := Kruskal(gText).Weight; w != oracle.Weight {
				t.Fatalf("text round trip changed MSF weight: %g vs %g", w, oracle.Weight)
			}
			// Every algorithm, several worker counts, identical forests.
			for _, workers := range []int{1, 3, 7} {
				for _, alg := range Algorithms() {
					f, err := Run(alg, g, Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if !f.Equal(oracle) {
						t.Fatalf("%s/%dw differs from oracle", alg, workers)
					}
				}
			}
			// Certify minimality once.
			if err := VerifyMinimum(g, oracle); err != nil {
				t.Fatal(err)
			}
			// The incremental maintainer fed the same edges converges to the
			// same weight.
			inc := NewIncrementalMSF(g.NumVertices())
			for _, e := range g.Edges() {
				if _, err := inc.Insert(e.U, e.V, e.W); err != nil {
					t.Fatal(err)
				}
			}
			if inc.Weight() != oracle.Weight {
				t.Fatalf("incremental weight %g, oracle %g", inc.Weight(), oracle.Weight)
			}
		})
	}
}

func TestEndToEndDeterminismAcrossRuns(t *testing.T) {
	g := GenerateRMAT(11, 8, WeightUniform, 7)
	ref := LLPPrimParallel(g, Options{Workers: 5})
	for i := 0; i < 5; i++ {
		if !LLPPrimParallel(g, Options{Workers: 5}).Equal(ref) {
			t.Fatal("LLPPrimParallel nondeterministic output")
		}
		if !LLPBoruvka(g, Options{Workers: 5}).Equal(ref) {
			t.Fatal("LLPBoruvka disagrees")
		}
		if !ParallelBoruvka(g, Options{Workers: 5}).Equal(ref) {
			t.Fatal("ParallelBoruvka disagrees")
		}
	}
}

func TestEndToEndWorkMetricsThroughPublicAPI(t *testing.T) {
	g := GenerateRoadNetwork(32, 32, 0.2, 9)
	var prim, llpPrim WorkMetrics
	if _, err := Run(AlgPrim, g, Options{Metrics: &prim}); err != nil {
		t.Fatal(err)
	}
	LLPPrim(g, Options{Metrics: &llpPrim})
	if llpPrim.HeapOps() >= prim.HeapOps() {
		t.Fatalf("public API metrics: llp-prim heap ops %d not below prim %d",
			llpPrim.HeapOps(), prim.HeapOps())
	}
	if llpPrim.String() == "" {
		t.Fatal("empty metrics string")
	}
}

func TestEndToEndLLPInstancesAgree(t *testing.T) {
	g := GenerateRoadNetwork(24, 24, 0.3, 11)
	base := ShortestPaths(LLPSequential, 1, g, 0)
	for _, mode := range []LLPMode{LLPAsync, LLPRound} {
		d := ShortestPaths(mode, 4, g, 0)
		for v := range d {
			if d[v] != base[v] {
				t.Fatalf("mode %v: dist[%d] differs", mode, v)
			}
		}
	}
	dij := ShortestPathsDijkstra(4, g, 0)
	for v := range dij {
		if dij[v] != base[v] {
			t.Fatalf("dijkstra driver: dist[%d] differs", v)
		}
	}
}

func TestEndToEndStableMarriagePublicAPI(t *testing.T) {
	n := 16
	prefM := make([][]uint32, n)
	prefW := make([][]uint32, n)
	for i := 0; i < n; i++ {
		prefM[i] = make([]uint32, n)
		prefW[i] = make([]uint32, n)
		for k := 0; k < n; k++ {
			prefM[i][k] = uint32(k)
			prefW[i][k] = uint32((i + k) % n)
		}
	}
	match := StableMarriage(LLPAsync, 4, prefM, prefW)
	if !IsStableMatching(prefM, prefW, match) {
		t.Fatal("unstable matching")
	}
}

func ExampleMinimumSpanningForest() {
	g, _ := NewGraph(4, []Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3}, {U: 3, V: 0, W: 4},
	})
	f := MinimumSpanningForest(g, Options{Workers: 1})
	fmt.Println(f)
	// Output: forest{n=4 edges=3 trees=1 weight=6}
}
