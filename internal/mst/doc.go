// Package mst implements the paper's contribution and its baselines: the
// minimum spanning forest algorithms LLP-Prim (Algorithm 5) and LLP-Boruvka
// (Algorithm 6), the classical Prim (Algorithm 2, indexed-heap and lazy-heap
// variants), sequential Boruvka (Algorithm 3), a GBBS-style parallel Boruvka
// baseline, a semiring (sparse-matrix) Boruvka whose per-round minimum-edge
// selection is a min-plus SpMV over the contracted graph's adjacency matrix,
// Kruskal, and two verifiers.
//
// Every algorithm produces the same unique minimum spanning forest, because
// all comparisons use the packed (weight, edge id) total order — the paper's
// "make weights unique by incorporating identities" device. The test suite
// exploits this: all algorithms are cross-checked edge-for-edge.
//
// # Choosing a backend
//
// Run and RunCtx dispatch on an Algorithm constant; Algorithms() enumerates
// the registered set. As a rule of thumb:
//
//   - AlgKruskal: the sequential oracle every test checks against.
//   - AlgPrim / AlgPrimLazy / AlgBoruvka: textbook baselines (Algorithms 2
//     and 3 of the paper).
//   - AlgLLPPrim, AlgLLPPrimParallel, AlgLLPPrimAsync: the paper's
//     LLP-Prim family — fixed-point advance on the vertex lattice, from
//     sequential to fully asynchronous.
//   - AlgParallelBoruvka / AlgLLPBoruvka: pointer-based parallel Boruvka
//     (GBBS-style write-min, and the paper's LLP formulation). LLP-Boruvka's
//     first round reads the minimum-weight-edge set §V.A computes at input
//     (graph.CSR.MinArcKeys, shared with LLP-Prim) instead of a write-min
//     pass over all m edges, and its later rounds key each edge by its
//     slot in the round's list, so the winning key names its edge. When
//     m >= 3n its rounds run on the ~2n lightest edges first (filter-
//     Kruskal's idea) and take in the heavy rest in one relabel pass, so
//     each heavy edge is read about twice instead of once per round.
//   - AlgSemiringBoruvka: the sparse-matrix formulation — branch-free
//     row-blocked min reductions with no atomics in the inner loop, aimed
//     at dense graphs, whose rows are long.
//
// The served portfolio (internal/resilient) runs AlgLLPBoruvka first and
// hedges it with the sequential AlgLLPPrim.
//
// Parallel algorithms draw all O(n+m) scratch from an Options.Workspace
// arena (or a pooled default), so steady-state runs allocate O(1); see
// Workspace and EstimateScratchBytes. Every forest's edge ids are sorted in
// linear time, by an LSD radix sort; the workspace algorithms lend it their
// chosen-ids buffer as scratch.
package mst
