package registry

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
	"llpmst/internal/resilient"
)

// BenchmarkDecodeBinary measures upload ingest — Decode's format sniff,
// ReadBinary and the load-time edge check, at the default worker count — on
// two of the graphs mstserve's cold-solve traffic uploads at scale s. Decode
// leaves the CSR's arc arrays unbuilt; each "+adjacency" leg also forces
// their deferred build and Validate, the extra cost a Prim-family leg pays
// on its first solve of an upload.
func BenchmarkDecodeBinary(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *graph.CSR
	}{
		{"road256", gen.RoadNetwork(0, 256, 256, 0.2, 1)},
		{"rmat14", gen.RMAT(0, 14, 16, gen.WeightUniform, 1)},
	} {
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, c.g); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		for _, adjacency := range []bool{false, true} {
			name := c.name
			if adjacency {
				name += "+adjacency"
			}
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g, err := Decode(0, bytes.NewReader(data))
					if err == nil && adjacency {
						err = g.Validate()
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// The hot-graph benchmarks quantify what the result cache buys: the same
// registered graph solved repeatedly from parallel clients, once with the
// cache doing its job and once with every request forced to miss (a unique
// options key per request). The ratio is the EXPERIMENTS.md "hot graph"
// table.
func benchRegistry(b *testing.B) (*Registry, *resilient.Runner) {
	b.Helper()
	runner := resilient.New(resilient.Config{})
	r := New(Config{Solver: runner})
	g := gen.ErdosRenyi(0, 50_000, 200_000, gen.WeightUniform, 42)
	if _, err := r.Put("hot", g); err != nil {
		b.Fatal(err)
	}
	return r, runner
}

func BenchmarkHotGraphSolveCached(b *testing.B) {
	r, runner := benchRegistry(b)
	defer runner.Drain(context.Background())
	// Warm the cache so every measured request is a hit.
	if _, err := r.Solve(context.Background(), "bench", "hot", 0, SolveOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := r.Solve(context.Background(), "bench", "hot", 0, SolveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkHotGraphSolveUncached(b *testing.B) {
	r, runner := benchRegistry(b)
	defer runner.Drain(context.Background())
	var key atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			opts := SolveOptions{Key: fmt.Sprintf("k%d", key.Add(1))}
			if _, err := r.Solve(context.Background(), "bench", "hot", 0, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
