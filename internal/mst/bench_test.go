package mst

import (
	"bytes"
	"fmt"
	"syscall"
	"testing"
	"time"

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
// solve-cold: a warm workspace and a graph freshly decoded from its upload
// bytes, so the cached minimum-arc keys (MinArcKeys) are computed inside
// the timed run. Each family runs at one worker (w1), two (w2) and the
// server's default auto count (auto), which must resolve to one worker on
// all four graphs. Next to ns/op each leg reports cpu-ms/op, the process
// CPU time (getrusage) per run: what the second worker costs the host.
//
//	GOMAXPROCS=2 go test -run '^$' -bench LLPBoruvkaServed -benchtime 10x -benchmem ./internal/mst
func BenchmarkLLPBoruvkaServed(b *testing.B) {
	for _, c := range servedGraphs() {
		if p := (Options{}).workers(c.g); p != 1 {
			b.Fatalf("%s: auto resolves to %d workers, want 1", c.name, p)
		}
		data, oracle := uploadBytes(b, c.g), Kruskal(c.g)
		for _, leg := range []struct {
			name    string
			workers int
		}{{"w1", 1}, {"w2", 2}, {"auto", 0}} {
			b.Run(fmt.Sprintf("%s/n=%d/m=%d/%s", c.name, c.g.NumVertices(), c.g.NumEdges(), leg.name), func(b *testing.B) {
				benchServedKernel(b, data, oracle, leg.workers)
			})
		}
	}
}

// BenchmarkLLPBoruvkaSizes is BenchmarkLLPBoruvkaServed's kernel at one
// and two workers over a size sweep of the four families, from n+m ≈
// 3.5×10^4 to 1.1–1.7×10^6. Where two workers save wall time worth the CPU
// they add is what sets par.WorkersFor's share (EXPERIMENTS "One worker
// below the share", medians of five runs of the command below). Not run in
// CI: it generates graphs of a million edges.
//
//	GOMAXPROCS=2 go test -run '^$' -bench LLPBoruvkaSizes -benchtime 10x -timeout 30m ./internal/mst
func BenchmarkLLPBoruvkaSizes(b *testing.B) {
	const seed = 3 * 100
	type family struct {
		name string
		make func(k int) *graph.CSR
		ks   []int
	}
	for _, f := range []family{
		{"road", func(k int) *graph.CSR { return gen.RoadNetwork(0, k, k, 0.2, seed) }, []int{128, 181, 256, 362, 512, 724}},
		{"er", func(k int) *graph.CSR { return gen.ErdosRenyi(0, 1<<k, 8<<k, gen.WeightUniform, seed+2) }, []int{12, 13, 14, 15, 16, 17}},
		{"geo", func(k int) *graph.CSR { return gen.Geometric(0, 1<<k, gen.ConnectivityRadius(1<<k), seed+3) }, []int{12, 13, 14, 15, 16, 17}},
		{"rmat", func(k int) *graph.CSR { return gen.RMAT(0, k, 16, gen.WeightUniform, seed+1) }, []int{11, 12, 13, 14, 15, 16}},
	} {
		for _, k := range f.ks {
			g := f.make(k)
			data, oracle := uploadBytes(b, g), Kruskal(g)
			for _, p := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/k=%d/nm=%d/w%d", f.name, k, g.NumVertices()+g.NumEdges(), p), func(b *testing.B) {
					benchServedKernel(b, data, oracle, p)
				})
			}
		}
	}
}

// uploadBytes is g in the binary upload format.
func uploadBytes(b *testing.B, g *graph.CSR) []byte {
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// benchServedKernel times LLP-Boruvka with the given worker count and a
// warm workspace on a graph decoded afresh from data for each run; the
// decode is outside both the timer and the CPU count. It reports the
// process's CPU time per run as cpu-ms/op.
func benchServedKernel(b *testing.B, data []byte, oracle *Forest, workers int) {
	decode := func() *graph.CSR {
		g, err := graph.ReadBinary(1, bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	opts := Options{Workers: workers, Workspace: NewWorkspace()}
	if f := must(LLPBoruvka(decode(), opts)); !f.Equal(oracle) {
		b.Fatal("forest differs from Kruskal's")
	}
	var cpu time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := decode()
		b.StartTimer()
		c0 := cpuTime(b)
		benchForest = must(LLPBoruvka(g, opts))
		cpu += cpuTime(b) - c0
	}
	b.ReportMetric(float64(cpu.Microseconds())/1e3/float64(b.N), "cpu-ms/op")
}

// cpuTime is the process's user plus system CPU time.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// benchForest keeps the benchmarked result live.
var benchForest *Forest
