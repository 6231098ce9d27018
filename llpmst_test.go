package llpmst

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	g, err := NewGraph(4, []Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3}, {U: 3, V: 0, W: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := MinimumSpanningForest(g, Options{})
	if f.Weight != 6 || len(f.EdgeIDs) != 3 || !f.Spanning() {
		t.Fatalf("MST wrong: %v", f)
	}
	if err := VerifyMinimum(g, f); err != nil {
		t.Fatal(err)
	}
}

func TestMinimumSpanningForestAlgorithmSelection(t *testing.T) {
	g := GenerateRMAT(8, 8, WeightUniform, 1)
	seq := MinimumSpanningForest(g, Options{Workers: 1})
	par := MinimumSpanningForest(g, Options{Workers: 4})
	if !seq.Equal(par) {
		t.Fatal("1-worker and 4-worker paths disagree")
	}
	if err := VerifyMinimum(g, seq); err != nil {
		t.Fatal(err)
	}
}

func TestAllPublicAlgorithmsAgree(t *testing.T) {
	g := GenerateRoadNetwork(24, 24, 0.25, 3)
	oracle := Kruskal(g)
	forests := map[string]*Forest{
		"prim":         Prim(g),
		"llp-prim":     LLPPrim(g, Options{}),
		"llp-prim-par": LLPPrimParallel(g, Options{Workers: 3}),
		"boruvka":      Boruvka(g),
		"par-boruvka":  ParallelBoruvka(g, Options{Workers: 3}),
		"llp-boruvka":  LLPBoruvka(g, Options{Workers: 3}),
	}
	for name, f := range forests {
		if !f.Equal(oracle) {
			t.Errorf("%s disagrees with kruskal", name)
		}
		if err := CheckForest(g, f); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, alg := range Algorithms() {
		f, err := Run(alg, g, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !f.Equal(oracle) {
			t.Errorf("Run(%s) disagrees with kruskal", alg)
		}
	}
}

func TestGraphIORoundTripsThroughPublicAPI(t *testing.T) {
	g := GenerateErdosRenyi(100, 300, WeightInteger, 5)
	dir := t.TempDir()

	binPath := filepath.Join(dir, "g.llpg")
	if err := SaveBinary(binPath, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinary(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if !Kruskal(g2).Equal(Kruskal(g)) {
		t.Fatal("binary round trip changed the MSF")
	}
	// LoadGraph sniffing: binary.
	g3, err := LoadGraph(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() != g.NumEdges() {
		t.Fatal("LoadGraph(binary) lost edges")
	}
	// LoadGraph sniffing: DIMACS text.
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	grPath := filepath.Join(dir, "g.gr")
	if err := os.WriteFile(grPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	g4, err := LoadGraph(grPath)
	if err != nil {
		t.Fatal(err)
	}
	if g4.NumEdges() != g.NumEdges() {
		t.Fatal("LoadGraph(dimacs) lost edges")
	}
	if _, err := LoadGraph(filepath.Join(dir, "missing.gr")); err == nil {
		t.Fatal("loaded a nonexistent file")
	}
}

func TestShortestPathsPublicAPI(t *testing.T) {
	g, err := NewGraph(3, []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 0, V: 2, W: 10}})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []LLPMode{LLPAsync, LLPRound, LLPSequential} {
		d := ShortestPaths(mode, 2, g, 0)
		if d[0] != 0 || d[1] != 2 || d[2] != 5 {
			t.Fatalf("mode %v: distances %v", mode, d)
		}
	}
}

func TestConnectedComponentsPublicAPI(t *testing.T) {
	g, err := NewGraph(5, []Edge{{U: 0, V: 1, W: 1}, {U: 3, V: 4, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	l := ConnectedComponents(LLPAsync, 2, g)
	if l[0] != 0 || l[1] != 0 || l[2] != 2 || l[3] != 3 || l[4] != 3 {
		t.Fatalf("labels %v", l)
	}
}

func TestSolveLLPCustomPredicate(t *testing.T) {
	// Users can plug their own predicates into the engine: round each cell
	// up to the next multiple of k.
	pred := &roundUp{vals: []int{1, 5, 6, 0, 13}, k: 5}
	st := SolveLLP(LLPSequential, 1, pred)
	want := []int{5, 5, 10, 0, 15}
	for i, v := range pred.vals {
		if v != want[i] {
			t.Fatalf("vals[%d] = %d, want %d", i, v, want[i])
		}
	}
	if st.Advances == 0 {
		t.Fatal("no advances")
	}
}

type roundUp struct {
	vals []int
	k    int
}

func (r *roundUp) N() int { return len(r.vals) }
func (r *roundUp) Forbidden(j int) bool {
	return r.vals[j] != 0 && r.vals[j]%r.k != 0
}
func (r *roundUp) Advance(j int) { r.vals[j]++ }

func TestGeneratorsThroughPublicAPI(t *testing.T) {
	geo := GenerateGeometric(500, 2*GeometricConnectivityRadius(500), 9)
	if !geo.Connected() {
		t.Fatal("geometric graph disconnected")
	}
	stats := geo.ComputeStats()
	if stats.Vertices != 500 {
		t.Fatalf("stats: %+v", stats)
	}
	road := GenerateRoadNetwork(16, 16, 0.2, 1)
	if got := road.ComputeStats().AvgDegree; math.Abs(got-2.4) > 0.8 {
		t.Fatalf("road avg degree %v not road-like", got)
	}
	if _, err := NewGraphWorkers(4, 10, []Edge{{U: 0, V: 9, W: 1}}); err != nil {
		t.Fatal(err)
	}
}
