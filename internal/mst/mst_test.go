package mst

import (
	"math/rand"
	"slices"
	"testing"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
	"llpmst/internal/llp"
)

// runAll runs every algorithm on g and returns the forests keyed by name.
func runAll(t *testing.T, g *graph.CSR, opts Options) map[Algorithm]*Forest {
	t.Helper()
	out := make(map[Algorithm]*Forest)
	for _, alg := range Algorithms() {
		f, err := Run(alg, g, opts)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		out[alg] = f
	}
	out["prim-pairing"] = PrimPairing(g)
	return out
}

// requireAllEqualAndValid cross-checks every produced forest against the
// Kruskal oracle and the structural verifier.
func requireAllEqualAndValid(t *testing.T, g *graph.CSR, forests map[Algorithm]*Forest) {
	t.Helper()
	oracle := forests[AlgKruskal]
	if err := CheckForest(g, oracle); err != nil {
		t.Fatalf("kruskal oracle invalid: %v", err)
	}
	for alg, f := range forests {
		if err := CheckForest(g, f); err != nil {
			t.Errorf("%s: invalid forest: %v", alg, err)
			continue
		}
		if !f.Equal(oracle) {
			t.Errorf("%s: edge set differs from kruskal oracle (%d vs %d edges, weight %g vs %g)",
				alg, len(f.EdgeIDs), len(oracle.EdgeIDs), f.Weight, oracle.Weight)
		}
	}
}

func TestPaperFigure1AllAlgorithms(t *testing.T) {
	g := gen.PaperFigure1()
	forests := runAll(t, g, Options{Workers: 2})
	requireAllEqualAndValid(t, g, forests)
	f := forests[AlgLLPPrim]
	// The paper's MST is the edges with weights {2, 3, 4, 7}, total 16.
	if f.Weight != 16 {
		t.Fatalf("MST weight %g, want 16", f.Weight)
	}
	var weights []float32
	for _, id := range f.EdgeIDs {
		weights = append(weights, g.Edge(id).W)
	}
	slices.Sort(weights)
	if !slices.Equal(weights, []float32{2, 3, 4, 7}) {
		t.Fatalf("MST edge weights %v, want [2 3 4 7]", weights)
	}
	if err := VerifyMinimum(g, f); err != nil {
		t.Fatal(err)
	}
}

func TestAllAlgorithmsOnGeneratorZoo(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.CSR
	}{
		{"rmat", gen.RMAT(1, 9, 8, gen.WeightUniform, 1)},
		{"rmat-int-weights", gen.RMAT(1, 8, 8, gen.WeightInteger, 2)},
		{"road", gen.RoadNetwork(1, 24, 24, 0.25, 3)},
		{"road-tree", gen.RoadNetwork(1, 16, 16, 0, 4)},
		{"er", gen.ErdosRenyi(1, 400, 2000, gen.WeightUniform, 5)},
		{"er-ties", gen.ErdosRenyi(1, 300, 3000, gen.WeightInteger, 6)},
		{"geometric", gen.Geometric(1, 500, 2*gen.ConnectivityRadius(500), 7)},
		{"cycle", gen.Cycle(50, 8)},
		{"star", gen.Star(64)},
		{"complete", gen.Complete(24, 9)},
		{"caterpillar", gen.Caterpillar(20, 4, 10)},
		{"binary-tree", gen.BinaryTree(127, 11)},
		{"disconnected", gen.Disconnected(5, 30, 12)},
		{"path", gen.Path(100, nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forests := runAll(t, tc.g, Options{Workers: 4})
			requireAllEqualAndValid(t, tc.g, forests)
			if err := VerifyMinimum(tc.g, forests[AlgKruskal]); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDegenerateGraphs(t *testing.T) {
	empty := graph.MustFromEdges(1, 0, nil)
	single := graph.MustFromEdges(1, 1, nil)
	isolated := graph.MustFromEdges(1, 7, nil)
	twoVerts := graph.MustFromEdges(1, 2, []graph.Edge{{U: 0, V: 1, W: 3}})
	multi := graph.MustFromEdges(1, 2, []graph.Edge{{U: 0, V: 1, W: 3}, {U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 2}})
	for _, tc := range []struct {
		name  string
		g     *graph.CSR
		edges int
	}{
		{"empty", empty, 0},
		{"single-vertex", single, 0},
		{"isolated-vertices", isolated, 0},
		{"one-edge", twoVerts, 1},
		{"parallel-edges", multi, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, alg := range Algorithms() {
				f, err := Run(alg, tc.g, Options{Workers: 3})
				if err != nil {
					t.Fatalf("%s: %v", alg, err)
				}
				if len(f.EdgeIDs) != tc.edges {
					t.Fatalf("%s: %d edges, want %d", alg, len(f.EdgeIDs), tc.edges)
				}
				if err := CheckForest(tc.g, f); err != nil {
					t.Fatalf("%s: %v", alg, err)
				}
			}
		})
	}
	// The parallel-edge MST must pick the weight-1 edge.
	f := Kruskal(multi)
	if multi.Edge(f.EdgeIDs[0]).W != 1 {
		t.Fatalf("picked weight %v, want 1", multi.Edge(f.EdgeIDs[0]).W)
	}
}

func TestTieBreakingIsCanonical(t *testing.T) {
	// All weights equal: the MSF must consist of the lowest edge ids that
	// form a forest, because ties break by edge id.
	edges := []graph.Edge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 5}, {U: 2, V: 0, W: 5},
		{U: 2, V: 3, W: 5}, {U: 3, V: 0, W: 5},
	}
	g := graph.MustFromEdges(1, 4, edges)
	want := []uint32{0, 1, 3} // ids 0,1 span {0,1,2}; id 2 closes a cycle; id 3 adds vertex 3
	forests := runAll(t, g, Options{Workers: 2})
	for alg, f := range forests {
		if !slices.Equal(f.EdgeIDs, want) {
			t.Errorf("%s: edge ids %v, want %v", alg, f.EdgeIDs, want)
		}
	}
}

func TestRandomGraphsPropertyAllAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(120)
		m := rng.Intn(4 * n)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			w := float32(rng.Intn(20)) // heavy ties on purpose
			edges = append(edges, graph.Edge{
				U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n)), W: w,
			})
		}
		g := graph.MustFromEdges(1, n, edges)
		oracle := Kruskal(g)
		if err := VerifyMinimum(g, oracle); err != nil {
			t.Fatalf("trial %d: oracle not minimal: %v", trial, err)
		}
		opts := Options{Workers: 1 + rng.Intn(4)}
		for _, alg := range Algorithms() {
			f, err := Run(alg, g, opts)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
			if !f.Equal(oracle) {
				t.Fatalf("trial %d: %s differs from oracle (n=%d m=%d)", trial, alg, n, g.NumEdges())
			}
		}
	}
}

func TestLLPPrimAblations(t *testing.T) {
	g := gen.RMAT(1, 9, 8, gen.WeightUniform, 21)
	oracle := Kruskal(g)
	for _, opts := range []Options{
		{NoEarlyFix: true},
		{NoStaging: true},
		{NoEarlyFix: true, NoStaging: true},
		{Workers: 4, NoEarlyFix: true},
		{Workers: 4, NoStaging: true},
	} {
		if f := must(LLPPrim(g, opts)); !f.Equal(oracle) {
			t.Fatalf("sequential ablation %+v broke correctness", opts)
		}
		if f := must(LLPPrimParallel(g, opts)); !f.Equal(oracle) {
			t.Fatalf("parallel ablation %+v broke correctness", opts)
		}
	}
}

func TestLLPBoruvkaJumpModes(t *testing.T) {
	g := gen.RoadNetwork(1, 32, 32, 0.3, 31)
	oracle := Kruskal(g)
	for _, mode := range []llp.Mode{llp.ModeAsync, llp.ModeRound, llp.ModeSequential} {
		f := must(LLPBoruvka(g, Options{Workers: 4, JumpMode: mode}))
		if !f.Equal(oracle) {
			t.Fatalf("jump mode %v broke correctness", mode)
		}
	}
}

func TestParallelAlgorithmsManyWorkerCounts(t *testing.T) {
	g := gen.ErdosRenyi(1, 1000, 8000, gen.WeightUniform, 41)
	oracle := Kruskal(g)
	for _, w := range []int{1, 2, 3, 8, 16} {
		opts := Options{Workers: w}
		for _, alg := range []Algorithm{AlgLLPPrimParallel, AlgParallelBoruvka, AlgLLPBoruvka} {
			f, err := Run(alg, g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !f.Equal(oracle) {
				t.Fatalf("%s with %d workers differs from oracle", alg, w)
			}
		}
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	if _, err := Run("nope", gen.Star(3), Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestForestAccessors(t *testing.T) {
	g := gen.PaperFigure1()
	f := Prim(g)
	if !f.Spanning() {
		t.Fatal("MST of connected graph should span")
	}
	if f.String() == "" {
		t.Fatal("empty String()")
	}
	d := gen.Disconnected(3, 5, 1)
	fd := Prim(d)
	if fd.Spanning() || fd.Trees != 3 {
		t.Fatalf("disconnected forest: trees=%d spanning=%v", fd.Trees, fd.Spanning())
	}
}

func TestMinWeightEdges(t *testing.T) {
	g := gen.PaperFigure1()
	mwe := minWeightEdges(2, g)
	// Per the paper's table: min incident weights are a:4 b:3 c:3 d:2 e:2.
	want := []float32{4, 3, 3, 2, 2}
	for v, key := range mwe {
		w := g.Edge(keyID(key)).W
		if w != want[v] {
			t.Fatalf("mwe[%d] weight %v, want %v", v, w, want[v])
		}
	}
	iso := graph.MustFromEdges(1, 3, []graph.Edge{{U: 0, V: 1, W: 1}})
	m2 := minWeightEdges(1, iso)
	if m2[2] != ^uint64(0) {
		t.Fatal("isolated vertex should have InfKey mwe")
	}
}

func keyID(k uint64) uint32 { return uint32(k) }
