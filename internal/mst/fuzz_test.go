package mst

import (
	"testing"

	"llpmst/internal/graph"
)

// FuzzDifferentialMSF decodes arbitrary bytes into a small weighted graph
// and differential-checks the parallel backends — including the semiring
// (sparse-matrix) Boruvka — against the Kruskal oracle. The decoder is
// deliberately permissive (endpoints wrap modulo n, weights come from a
// small integer range so ties are dense), so the fuzzer explores tie-heavy,
// multi-edge, self-loop-adjacent shapes that generators rarely emit.
//
// Run with `go test -run xxx -fuzz=FuzzDifferentialMSF ./internal/mst`; the
// seed corpus below doubles as a regression suite under plain `go test`.
func FuzzDifferentialMSF(f *testing.F) {
	f.Add([]byte{4, 0, 1, 3, 1, 2, 3, 2, 3, 3, 0, 2, 7})
	f.Add([]byte{2, 0, 1, 0, 0, 1, 0, 1, 0, 0})
	f.Add([]byte{8, 0, 7, 1, 1, 6, 1, 2, 5, 1, 3, 4, 1})
	f.Add([]byte{1})
	f.Add([]byte{16, 0, 0, 0})
	// A dense, tie-heavy multigraph (n = 5, m = 24 ≥ 3n, weights 0 and 1),
	// so that plain `go test` runs LLP-Boruvka's light-edge filter.
	dense := []byte{4}
	for i := 0; i < 24; i++ {
		u := i % 5
		dense = append(dense, byte(u), byte((u+1+i/5%4)%5), byte(i%2))
	}
	f.Add(dense)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 1<<12 {
			return
		}
		n := int(in[0]%63) + 1
		in = in[1:]
		edges := make([]graph.Edge, 0, len(in)/3)
		for len(in) >= 3 {
			u := uint32(in[0]) % uint32(n)
			v := uint32(in[1]) % uint32(n)
			w := float32(in[2] % 16)
			in = in[3:]
			edges = append(edges, graph.Edge{U: u, V: v, W: w})
		}
		g, err := graph.FromEdges(1, n, edges)
		if err != nil {
			return
		}
		oracle := Kruskal(g)
		for _, alg := range []Algorithm{AlgSemiringBoruvka, AlgLLPBoruvka, AlgLLPPrimAsync} {
			forest, err := Run(alg, g, Options{Workers: 2})
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if !forest.Equal(oracle) {
				t.Fatalf("%s differs from kruskal on n=%d m=%d: %s vs %s",
					alg, g.NumVertices(), g.NumEdges(), forest, oracle)
			}
		}
	})
}
