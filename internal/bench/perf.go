package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"llpmst/internal/mst"
)

// Perf measures the repo's benchmark trajectory: every parallel algorithm
// against the sequential Prim baseline on the Table I stand-ins and the
// er and geo morphologies (the served solve-cold families), at one worker
// and at GOMAXPROCS, with a reused Workspace warmed by one untimed
// run so the numbers reflect steady state (allocs_per_op is the point of the
// warm-up: second-and-later runs on a warm workspace should allocate O(1)).
//
// The rows are what `mstbench -json-out` snapshots into BENCH_perf.json;
// committing that file after perf-relevant changes gives future sessions a
// diffable trajectory instead of a single point.
func Perf(w io.Writer, sc Scale, trials int) ([]Result, error) {
	return PerfCtx(context.Background(), w, sc, trials)
}

// PerfCtx is Perf under a context (see MeasureCtx).
func PerfCtx(ctx context.Context, w io.Writer, sc Scale, trials int) ([]Result, error) {
	procs := runtime.GOMAXPROCS(0)
	workerSets := []int{1, procs}
	if procs == 1 {
		workerSets = []int{1}
	}
	parAlgs := []mst.Algorithm{
		mst.AlgLLPPrim, mst.AlgLLPPrimParallel, mst.AlgLLPPrimAsync,
		mst.AlgParallelBoruvka, mst.AlgLLPBoruvka, mst.AlgSemiringBoruvka,
	}
	var results []Result
	for _, ds := range []string{"road", "rmat", "er", "geo"} {
		g, err := GetDataset(sc, ds)
		if err != nil {
			return nil, err
		}
		base, err := MeasureCtx(ctx, g, mst.AlgPrim, mst.Options{Workers: 1}, trials)
		if err != nil {
			return nil, err
		}
		base.Experiment, base.Dataset, base.Speedup = "perf", ds, 1
		results = append(results, base)
		for _, alg := range parAlgs {
			for _, p := range workerSets {
				if alg == mst.AlgLLPPrim && p != 1 {
					continue // sequential variant: one worker by definition
				}
				opts := mst.Options{Workers: p, Workspace: mst.NewWorkspace()}
				if _, err := mst.RunCtx(ctx, alg, g, opts); err != nil {
					return nil, err // warm-up: grow the workspace once, untimed
				}
				r, err := MeasureCtx(ctx, g, alg, opts, trials)
				if err != nil {
					return nil, err
				}
				r.Experiment, r.Dataset = "perf", ds
				if base.Millis > 0 {
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
	PrintTable(w, fmt.Sprintf("Perf trajectory: warm-workspace steady state vs sequential Prim (scale=%s, trials=%d, GOMAXPROCS=%d)", sc, trials, procs),
		[]string{"dataset", "algorithm", "workers", "time-ms", "vs-prim", "allocs/op", "bytes/op"}, rows)
	return results, nil
}
