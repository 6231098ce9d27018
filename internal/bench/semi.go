package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"llpmst/internal/gen"
	"llpmst/internal/mst"
)

// Semi measures the semiring sparse-matrix backend against the pointer-based
// Boruvka implementations across a density sweep × workers sweep: the
// GraphBLAS-style formulation trades the pointer algorithms' atomic
// write-min scatter for regular row streaming, so its advantage should grow
// with average degree (longer matrix rows amortize the per-round relabel).
// The rows are what `mstbench -exp semi -json-out` snapshots into
// BENCH_semi.json; EXPERIMENTS.md reads that trajectory.
func Semi(w io.Writer, sc Scale, trials int) ([]Result, error) {
	return SemiCtx(context.Background(), w, sc, trials)
}

// SemiCtx is Semi under a context (see MeasureCtx).
func SemiCtx(ctx context.Context, w io.Writer, sc Scale, trials int) ([]Result, error) {
	procs := runtime.GOMAXPROCS(0)
	workerSets := []int{1, procs}
	if procs == 1 {
		workerSets = []int{1}
	}
	// LLP-Boruvka is each (density, workers) cell's baseline and so must be
	// measured first; the other two rows report speedup against it.
	algs := []mst.Algorithm{mst.AlgLLPBoruvka, mst.AlgParallelBoruvka, mst.AlgSemiringBoruvka}
	var n int
	switch sc {
	case ScaleTest:
		n = 1 << 10
	case ScaleS:
		n = 1 << 14
	case ScaleM:
		n = 1 << 16
	default: // ScaleL
		n = 1 << 17
	}
	// Density sweep: Erdos-Renyi at fixed n with average degree 2, 8, and
	// 32 (the same morphology `mstgen -type er` emits): m = n, 4n and 16n,
	// one sparse, one dense and one very dense graph.
	degrees := []int{2, 8, 32}
	var results []Result
	for _, deg := range degrees {
		g := gen.ErdosRenyi(0, n, n*deg/2, gen.WeightUniform, 42)
		ds := fmt.Sprintf("er-deg%d", deg)
		for _, p := range workerSets {
			var base Result
			for _, alg := range algs {
				opts := mst.Options{Workers: p, Workspace: mst.NewWorkspace()}
				if _, err := mst.RunCtx(ctx, alg, g, opts); err != nil {
					return nil, err // warm-up: grow the workspace once, untimed
				}
				r, err := MeasureCtx(ctx, g, alg, opts, trials)
				if err != nil {
					return nil, err
				}
				r.Experiment, r.Dataset = "semi", ds
				switch {
				case alg == mst.AlgLLPBoruvka:
					base, r.Speedup = r, 1
				case base.Millis > 0:
					r.Speedup = base.Millis / r.Millis
				}
				results = append(results, r)
			}
		}
	}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			r.Dataset, r.Algorithm, fmt.Sprintf("%d", r.Workers),
			ms(r.Millis), fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%d", r.AllocsPerOp), fmt.Sprintf("%d", r.BytesPerOp),
		})
	}
	PrintTable(w, fmt.Sprintf("Semiring vs pointer-based Boruvka: density sweep x workers (n=%d, scale=%s, trials=%d, GOMAXPROCS=%d)", n, sc, trials, procs),
		[]string{"dataset", "algorithm", "workers", "time-ms", "vs-llp-boruvka", "allocs/op", "bytes/op"}, rows)
	return results, nil
}
