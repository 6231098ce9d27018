package mst

// Determinism stress: the parallel algorithms race internally (CAS fixing,
// atomic write-min, work stealing), but lattice-linearity and the unique
// key order mean the *output* must be identical on every run, at every
// worker count, under every scheduler. These tests hammer that promise.

import (
	"testing"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
)

func TestParallelDeterminismStress(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"rmat":  gen.RMAT(1, 10, 8, gen.WeightUniform, 71),
		"road":  gen.RoadNetwork(1, 32, 32, 0.25, 72),
		"ties":  gen.ErdosRenyi(1, 600, 4000, gen.WeightInteger, 73),
		"multi": gen.Disconnected(5, 40, 74),
	}
	for name, g := range graphs {
		oracle := Kruskal(g)
		runs := 8
		for i := 0; i < runs; i++ {
			workers := 1 + (i*3)%7
			opts := Options{Workers: workers}
			if f := must(LLPPrimParallel(g, opts)); !f.Equal(oracle) {
				t.Fatalf("%s run %d (w=%d): llp-prim-par nondeterministic", name, i, workers)
			}
			if f := must(LLPPrimAsync(g, opts)); !f.Equal(oracle) {
				t.Fatalf("%s run %d (w=%d): llp-prim-async nondeterministic", name, i, workers)
			}
			if f := must(ParallelBoruvka(g, opts)); !f.Equal(oracle) {
				t.Fatalf("%s run %d (w=%d): boruvka-par nondeterministic", name, i, workers)
			}
			if f := must(LLPBoruvka(g, opts)); !f.Equal(oracle) {
				t.Fatalf("%s run %d (w=%d): llp-boruvka nondeterministic", name, i, workers)
			}
			if f := must(SemiringBoruvka(g, opts)); !f.Equal(oracle) {
				t.Fatalf("%s run %d (w=%d): semi-boruvka nondeterministic", name, i, workers)
			}
		}
	}
}

func TestAblationsPreserveDeterminism(t *testing.T) {
	g := gen.RMAT(1, 9, 8, gen.WeightUniform, 75)
	oracle := Kruskal(g)
	for i := 0; i < 5; i++ {
		for _, opts := range []Options{
			{Workers: 4, NoEarlyFix: true},
			{Workers: 4, NoStaging: true},
			{Workers: 4, NoEarlyFix: true, NoStaging: true},
		} {
			if f := must(LLPPrimParallel(g, opts)); !f.Equal(oracle) {
				t.Fatalf("ablation %+v nondeterministic or wrong", opts)
			}
			if f := must(LLPPrimAsync(g, opts)); !f.Equal(oracle) {
				t.Fatalf("async ablation %+v nondeterministic or wrong", opts)
			}
		}
	}
}
