package llpmst

// One testing.B benchmark family per table/figure of the paper's evaluation
// (§VII). The same experiments, with pretty-printed tables, parameter
// control and larger scales, are available through cmd/mstbench; these
// benches are the `go test -bench` entry point.
//
// Scale defaults to "s" (~65k-vertex graphs) and can be overridden with the
// LLPMST_BENCH_SCALE environment variable (test|s|m|l).

import (
	"fmt"
	"os"
	"testing"

	"llpmst/internal/bench"
	"llpmst/internal/graph"
	"llpmst/internal/mst"
)

func benchScale(b *testing.B) bench.Scale {
	s := os.Getenv("LLPMST_BENCH_SCALE")
	if s == "" {
		return bench.ScaleS
	}
	sc, err := bench.ParseScale(s)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

func dataset(b *testing.B, name string) *graph.CSR {
	g, err := bench.GetDataset(benchScale(b), name)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func runAlg(b *testing.B, g *graph.CSR, alg mst.Algorithm, workers int) {
	b.Helper()
	b.ReportAllocs()
	b.SetBytes(int64(g.NumEdges()))
	var f *mst.Forest
	for i := 0; i < b.N; i++ {
		var err error
		f, err = mst.Run(alg, g, mst.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
	}
	if f != nil {
		b.ReportMetric(float64(len(f.EdgeIDs)), "tree-edges")
	}
}

// BenchmarkTableIDatasets regenerates Table I's inventory: the cost of
// building each benchmark dataset.
func BenchmarkTableIDatasets(b *testing.B) {
	sc := benchScale(b)
	for _, d := range bench.Datasets(sc) {
		b.Run(d.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := d.Build(0)
				if g.NumVertices() == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

// BenchmarkFig2SingleThread regenerates Fig. 2: Prim vs LLP-Prim(1T) vs
// Boruvka, single-threaded, on the road and Kronecker graphs. Paper shape:
// Prim-family ≈3x faster than Boruvka, LLP-Prim 21-27% faster than Prim.
func BenchmarkFig2SingleThread(b *testing.B) {
	for _, ds := range []string{"road", "rmat"} {
		g := dataset(b, ds)
		for _, alg := range []mst.Algorithm{mst.AlgPrim, mst.AlgLLPPrim, mst.AlgBoruvka} {
			b.Run(fmt.Sprintf("%s/%s", ds, alg), func(b *testing.B) {
				runAlg(b, g, alg, 1)
			})
		}
	}
}

// BenchmarkFig3ThreadSweep regenerates Fig. 3: the three parallel
// algorithms across worker counts on the road network. Paper shape:
// LLP-Prim tapers around 8 threads; the Boruvka-based algorithms scale
// near-linearly with LLP-Boruvka ahead of parallel Boruvka.
func BenchmarkFig3ThreadSweep(b *testing.B) {
	g := dataset(b, "road")
	algs := []mst.Algorithm{mst.AlgLLPPrimParallel, mst.AlgParallelBoruvka, mst.AlgLLPBoruvka}
	for _, alg := range algs {
		for _, p := range bench.DefaultThreads {
			b.Run(fmt.Sprintf("%s/p=%d", alg, p), func(b *testing.B) {
				runAlg(b, g, alg, p)
			})
		}
	}
}

// BenchmarkFig4LowHigh regenerates Fig. 4: the parallel algorithms at a low
// (4) and high (32) worker count on the three morphologies. Paper shape:
// LLP-Prim best at low counts and denser graphs; Boruvka-family at high
// counts, LLP-Boruvka ≥ parallel Boruvka.
func BenchmarkFig4LowHigh(b *testing.B) {
	algs := []mst.Algorithm{mst.AlgLLPPrimParallel, mst.AlgParallelBoruvka, mst.AlgLLPBoruvka}
	for _, ds := range []string{"road", "rmat", "geo"} {
		g := dataset(b, ds)
		for _, p := range []int{4, 32} {
			for _, alg := range algs {
				b.Run(fmt.Sprintf("%s/p=%d/%s", ds, p, alg), func(b *testing.B) {
					runAlg(b, g, alg, p)
				})
			}
		}
	}
}

// BenchmarkSizeSweep regenerates the §VII.C size observation: the same
// morphology at growing sizes (test and s scales here; the mstbench CLI
// sweeps further).
func BenchmarkSizeSweep(b *testing.B) {
	algs := []mst.Algorithm{mst.AlgLLPPrimParallel, mst.AlgParallelBoruvka, mst.AlgLLPBoruvka}
	for _, sc := range []bench.Scale{bench.ScaleTest, bench.ScaleS} {
		for _, ds := range []string{"road", "rmat"} {
			g, err := bench.GetDataset(sc, ds)
			if err != nil {
				b.Fatal(err)
			}
			for _, alg := range algs {
				b.Run(fmt.Sprintf("%s-%s/%s", ds, sc, alg), func(b *testing.B) {
					runAlg(b, g, alg, 8)
				})
			}
		}
	}
}

// BenchmarkAblationLLPPrim measures §V.A's design choices: MWE early fixing
// and the Q staging set, on both morphologies.
func BenchmarkAblationLLPPrim(b *testing.B) {
	for _, ds := range []string{"road", "rmat"} {
		g := dataset(b, ds)
		variants := []struct {
			name string
			opts mst.Options
		}{
			{"full", mst.Options{}},
			{"no-early-fix", mst.Options{NoEarlyFix: true}},
			{"no-staging", mst.Options{NoStaging: true}},
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/%s", ds, v.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mst.LLPPrim(g, v.opts)
				}
			})
		}
	}
}

// BenchmarkAblationLLPBoruvkaJump measures the pointer-jumping driver
// choice in LLP-Boruvka: barrier-free async (the paper's point), round-
// synchronized, and sequential.
func BenchmarkAblationLLPBoruvkaJump(b *testing.B) {
	g := dataset(b, "road")
	for _, v := range []struct {
		name string
		mode LLPMode
	}{
		{"async", LLPAsync}, {"round", LLPRound}, {"sequential", LLPSequential},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mst.LLPBoruvka(g, mst.Options{Workers: 8, JumpMode: v.mode})
			}
		})
	}
}

// BenchmarkAblationSchedulers compares the two parallel LLP-Prim schedules:
// barrier-synchronized frontier waves vs the asynchronous work-stealing bag.
func BenchmarkAblationSchedulers(b *testing.B) {
	for _, ds := range []string{"road", "rmat"} {
		g := dataset(b, ds)
		for _, v := range []struct {
			name string
			alg  mst.Algorithm
		}{
			{"frontier", mst.AlgLLPPrimParallel},
			{"async-bag", mst.AlgLLPPrimAsync},
		} {
			b.Run(fmt.Sprintf("%s/%s", ds, v.name), func(b *testing.B) {
				runAlg(b, g, v.alg, 8)
			})
		}
	}
}

// BenchmarkAblationPrimHeaps measures the heap-choice ablation: indexed
// binary heap (Algorithm 2), lazy binary heap (§IV's simplified analysis
// variant), pairing heap.
func BenchmarkAblationPrimHeaps(b *testing.B) {
	g := dataset(b, "road")
	for _, v := range []struct {
		name string
		run  func(*graph.CSR) *mst.Forest
	}{
		{"indexed", mst.Prim},
		{"lazy", mst.PrimLazy},
		{"pairing", mst.PrimPairing},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.run(g)
			}
		})
	}
}

// BenchmarkVerifier measures the O((n+m) log n) cycle-property verifier,
// which the harness runs after timed sections.
func BenchmarkVerifier(b *testing.B) {
	g := dataset(b, "road")
	f := mst.Kruskal(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mst.VerifyMinimum(g, f); err != nil {
			b.Fatal(err)
		}
	}
}
