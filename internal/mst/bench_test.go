package mst

import (
	"bytes"
	"fmt"
	"testing"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
)

// namedGraph is a benchmark input and its family name.
type namedGraph struct {
	name string
	g    *graph.CSR
}

// servedGraphs are solve-cold's four scale-s families, with the generators
// and dims of benchmark/workloads.go at that workload's seed 3.
func servedGraphs() []namedGraph {
	const seed = 3 * 100
	return []namedGraph{
		{"road", gen.RoadNetwork(0, 256, 256, 0.2, seed)},
		{"rmat", gen.RMAT(0, 14, 16, gen.WeightUniform, seed+1)},
		{"er", gen.ErdosRenyi(0, 1<<14, 1<<17, gen.WeightUniform, seed+2)},
		{"geo", gen.Geometric(0, 1<<14, gen.ConnectivityRadius(1<<14), seed+3)},
	}
}

// BenchmarkLLPBoruvkaServed times LLP-Boruvka as mstserve runs it on
// solve-cold: two workers, a warm workspace, and a graph freshly decoded
// from its upload bytes, so the cached minimum-arc keys (MinArcKeys) are
// computed inside the timed run. The decode runs outside the timer.
//
//	GOMAXPROCS=2 go test -run '^$' -bench LLPBoruvkaServed -benchtime 10x -benchmem ./internal/mst
func BenchmarkLLPBoruvkaServed(b *testing.B) {
	for _, c := range servedGraphs() {
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, c.g); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		oracle := Kruskal(c.g)
		b.Run(fmt.Sprintf("%s/n=%d/m=%d", c.name, c.g.NumVertices(), c.g.NumEdges()), func(b *testing.B) {
			opts := Options{Workers: 2, Workspace: NewWorkspace()}
			if f := must(LLPBoruvka(c.g, opts)); !f.Equal(oracle) {
				b.Fatal("forest differs from Kruskal's")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, err := graph.ReadBinary(1, bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				benchForest = must(LLPBoruvka(g, opts))
			}
		})
	}
}

// benchForest keeps the benchmarked result live.
var benchForest *Forest
