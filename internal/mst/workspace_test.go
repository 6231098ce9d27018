package mst

import (
	"fmt"
	"testing"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
)

// parallelAlgs are the algorithms that draw scratch from Options.Workspace.
var parallelAlgs = []Algorithm{
	AlgLLPPrim, AlgLLPPrimParallel, AlgLLPPrimAsync, AlgParallelBoruvka, AlgLLPBoruvka,
	AlgSemiringBoruvka,
}

// TestWorkspaceReuseDifferential reuses ONE workspace across every parallel
// algorithm, worker count, and a spread of stress graphs of varying shape
// and size, requiring each run to reproduce the Kruskal oracle exactly. This
// is the correctness half of the workspace contract: buffers grown by one
// graph and dirtied by one algorithm must not leak state into the next run
// (the race suite additionally poisons buffers on every acquire).
func TestWorkspaceReuseDifferential(t *testing.T) {
	ws := NewWorkspace()
	families := []string{"sparse", "dense", "disconnected", "multi"}
	perFamily := 6
	if testing.Short() {
		perFamily = 2
	}
	type kept struct {
		name   string
		forest *Forest
		oracle *Forest
	}
	var all []kept
	for _, family := range families {
		for i := 0; i < perFamily; i++ {
			g := stressGraph(family, int64(2000*i)+int64(len(family)))
			oracle := Kruskal(g)
			for _, p := range []int{1, 2} {
				for _, alg := range parallelAlgs {
					f, err := Run(alg, g, Options{Workers: p, Workspace: ws})
					if err != nil {
						t.Fatalf("%s/%d %s p=%d: %v", family, i, alg, p, err)
					}
					if !f.Equal(oracle) {
						t.Fatalf("%s/%d %s p=%d: forest differs from oracle (%d vs %d edges)",
							family, i, alg, p, len(f.EdgeIDs), len(oracle.EdgeIDs))
					}
					all = append(all, kept{fmt.Sprintf("%s/%d/%s/p=%d", family, i, alg, p), f, oracle})
				}
			}
		}
	}
	// Forests must not alias workspace memory: every forest returned above
	// must still match its oracle after all the later runs reused the arena.
	for _, k := range all {
		if !k.forest.Equal(k.oracle) {
			t.Fatalf("%s: forest mutated by later workspace reuse", k.name)
		}
	}
}

// TestWorkspaceSteadyStateAllocs pins the tentpole's quantitative promise:
// with a warm reused Workspace, each algorithm's per-call allocations are a
// small constant (the returned Forest, its cloned edge-id slice, and a few
// O(rounds) driver constants) — independent of n and m — at one worker and
// at two, where the parallel runtime starts its goroutines. The sparse leg
// runs barely above a tree; the dense leg (m ≥ 3n) runs LLP-Boruvka's
// light-edge filter and heavy phase.
func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	// Bounds are ~2x the steady state measured on these graphs, so they
	// catch a regression to per-element allocation without flaking on a
	// round or two of variance. At one worker the pointer-jumping
	// Boruvkas' bounds are largest: their driver allocates O(log n) small
	// constants per contraction round. At two workers the parallel
	// runtime's goroutine starts add to every count, most to
	// llp-prim-async's, whose scheduler starts p goroutines per heap fix.
	legs := []struct {
		prefix string
		g      *graph.CSR
		bounds map[Algorithm][2]float64 // {Workers: 1, Workers: 2}
	}{
		{"", stressGraph("sparse", 42), map[Algorithm][2]float64{
			AlgLLPPrim:         {8, 8},
			AlgLLPPrimParallel: {12, 12},
			AlgLLPPrimAsync:    {16, 1300},
			AlgParallelBoruvka: {32, 96},
			AlgLLPBoruvka:      {96, 200},
			AlgSemiringBoruvka: {96, 330},
		}},
		{"dense-", gen.Geometric(1, 1000, gen.ConnectivityRadius(1000), 42), map[Algorithm][2]float64{
			AlgLLPPrim:         {8, 8},
			AlgLLPPrimParallel: {12, 12},
			AlgLLPPrimAsync:    {16, 9600},
			AlgParallelBoruvka: {24, 180},
			AlgLLPBoruvka:      {120, 440},
			AlgSemiringBoruvka: {110, 620},
		}},
	}
	for _, alg := range parallelAlgs {
		t.Run(string(alg), func(t *testing.T) {
			for _, leg := range legs {
				oracle := Kruskal(leg.g)
				for wi, workers := range []int{1, 2} {
					t.Run(fmt.Sprintf("%sw%d", leg.prefix, workers), func(t *testing.T) {
						ws := NewWorkspace()
						opts := Options{Workers: workers, Workspace: ws}
						// First call grows the arena and is allowed to allocate freely.
						warm := must(Run(alg, leg.g, opts))
						if !warm.Equal(oracle) {
							t.Fatalf("warm-up forest differs from oracle")
						}
						var sink *Forest
						n := testing.AllocsPerRun(10, func() {
							sink = must(Run(alg, leg.g, opts))
						})
						t.Logf("steady-state allocs/run = %v", n)
						if bound := leg.bounds[alg][wi]; n > bound {
							t.Errorf("steady-state allocs/run = %v, want <= %v", n, bound)
						}
						if !sink.Equal(oracle) {
							t.Fatalf("steady-state forest differs from oracle")
						}
					})
				}
			}
		})
	}
}

// TestWorkspaceConcurrentUsePanics: sharing one workspace across two
// simultaneous runs must fail loudly, not corrupt both runs.
func TestWorkspaceConcurrentUsePanics(t *testing.T) {
	g := stressGraph("sparse", 7)
	ws := NewWorkspace()
	ws.acquire() // simulate a run in flight
	defer ws.release()
	defer func() {
		if recover() == nil {
			t.Fatal("second run on a busy workspace did not panic")
		}
	}()
	_, _ = Run(AlgLLPPrim, g, Options{Workers: 1, Workspace: ws})
}

// TestWorkspaceDoubleReleasePanics: releasing an idle workspace is a bug in
// the runtime's defer discipline and must be loud.
func TestWorkspaceDoubleReleasePanics(t *testing.T) {
	ws := NewWorkspace()
	ws.acquire()
	ws.release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	ws.release()
}

// TestWorkspacePoolDefault: with Options.Workspace nil the algorithms draw
// from the internal pool; repeated runs stay correct (the pooled arenas are
// dirtied by every prior run) and the workspace-using algorithms agree with
// the oracle.
func TestWorkspacePoolDefault(t *testing.T) {
	for i := 0; i < 3; i++ {
		g := stressGraph("dense", int64(i))
		oracle := Kruskal(g)
		for _, alg := range parallelAlgs {
			f, err := Run(alg, g, Options{Workers: 2})
			if err != nil {
				t.Fatalf("iter %d %s: %v", i, alg, err)
			}
			if !f.Equal(oracle) {
				t.Fatalf("iter %d %s: forest differs from oracle", i, alg)
			}
		}
	}
}

// TestWorkspaceGrowShrinkGrow: a workspace sized by a large graph must
// still produce correct results on a smaller one (stale tail state beyond
// the resliced length must be invisible), and vice versa.
func TestWorkspaceGrowShrinkGrow(t *testing.T) {
	ws := NewWorkspace()
	big := stressGraph("dense", 11)
	small := stressGraph("multi", 12)
	sequence := []*graph.CSR{big, small, big, small}
	for round, g := range sequence {
		oracle := Kruskal(g)
		for _, alg := range parallelAlgs {
			f, err := Run(alg, g, Options{Workers: 1, Workspace: ws})
			if err != nil {
				t.Fatalf("round %d %s: %v", round, alg, err)
			}
			if !f.Equal(oracle) {
				t.Fatalf("round %d %s: forest differs after resize", round, alg)
			}
		}
	}
}

// TestEstimateScratchBytes pins the estimator's contract: monotone in every
// dimension, zero-safe, and a sound upper-bound proxy — the estimate for a
// graph must dominate the bytes a cold workspace actually allocates to
// serve it (the quantity an admission controller budgets against).
func TestEstimateScratchBytes(t *testing.T) {
	if got := EstimateScratchBytes(0, 0, 0); got <= 0 {
		t.Fatalf("empty-input estimate %d; want positive (per-worker floor)", got)
	}
	base := EstimateScratchBytes(1000, 5000, 4)
	if EstimateScratchBytes(2000, 5000, 4) <= base {
		t.Fatal("estimate not monotone in n")
	}
	if EstimateScratchBytes(1000, 10000, 4) <= base {
		t.Fatal("estimate not monotone in m")
	}
	if EstimateScratchBytes(1000, 5000, 8) <= base {
		t.Fatal("estimate not monotone in workers")
	}

	g := graph.MustFromEdges(1, 3000, func() []graph.Edge {
		edges := make([]graph.Edge, 0, 12000)
		for i := 0; i < 12000; i++ {
			u, v := uint32(i%3000), uint32((i*7+1)%3000)
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v, W: float32(i%97) + 1})
			}
		}
		return edges
	}())
	est := EstimateScratchBytes(g.NumVertices(), g.NumEdges(), 4)
	for _, alg := range parallelAlgs {
		ws := NewWorkspace()
		// First run grows every buffer the algorithm touches; the arena then
		// holds its steady-state footprint.
		if _, err := Run(alg, g, Options{Workers: 4, Workspace: ws}); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		held := int64(8*len(ws.keys) +
			4*(len(ws.flagsA)+len(ws.flagsB)+len(ws.vertsA)+len(ws.vertsB)+len(ws.vertsC)) +
			len(ws.boolsA) + len(ws.boolsB) + 8*len(ws.sample) +
			4*(len(ws.ids)+len(ws.bag)+len(ws.stage)+len(ws.picks)) +
			8*len(ws.recs) +
			16*(len(ws.cedges)+len(ws.cspare)) +
			4*(len(ws.eIDs)+len(ws.eSpare)+len(ws.eFlags)) +
			8*len(ws.counters))
		if held > est {
			t.Fatalf("%s: workspace holds %d bytes of slice scratch, estimate %d does not cover it", alg, held, est)
		}
	}
}
