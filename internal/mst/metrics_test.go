package mst

import (
	"strings"
	"testing"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
)

// TestLLPPrimDoesLessHeapWorkThanPrim checks the paper's central mechanism
// claim for LLP-Prim (§V.A / abstract): it "reduces the number of heap
// operations required by Prim by allowing edges to be selected without
// entering the heap". This is the machine-independent form of Fig. 2.
func TestLLPPrimDoesLessHeapWorkThanPrim(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"road": gen.RoadNetwork(1, 64, 64, 0.2, 1),
		"rmat": gen.RMAT(1, 11, 16, gen.WeightUniform, 1),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			var prim, llpPrim WorkMetrics
			if _, err := Run(AlgPrim, g, Options{Metrics: &prim}); err != nil {
				t.Fatal(err)
			}
			LLPPrim(g, Options{Metrics: &llpPrim})
			if llpPrim.EarlyFixes == 0 {
				t.Fatal("LLP-Prim performed no early fixes")
			}
			if llpPrim.HeapOps() >= prim.HeapOps() {
				t.Fatalf("LLP-Prim heap ops %d not below Prim's %d", llpPrim.HeapOps(), prim.HeapOps())
			}
			// Every fixed vertex is fixed exactly once, one way or the other.
			fixes := llpPrim.EarlyFixes + llpPrim.HeapFixes
			comps := g.NumVertices() - int(fixes)
			if comps < 1 {
				t.Fatalf("fix count %d exceeds n-1", fixes)
			}
			t.Logf("%s: prim heap ops=%d, llp-prim heap ops=%d (early fixes=%d, %0.f%% of vertices)",
				name, prim.HeapOps(), llpPrim.HeapOps(), llpPrim.EarlyFixes,
				100*float64(llpPrim.EarlyFixes)/float64(g.NumVertices()))
		})
	}
}

func TestAblationCountersRespond(t *testing.T) {
	g := gen.RoadNetwork(1, 48, 48, 0.2, 3)
	var full, noEarly, noStaging WorkMetrics
	LLPPrim(g, Options{Metrics: &full})
	LLPPrim(g, Options{NoEarlyFix: true, Metrics: &noEarly})
	LLPPrim(g, Options{NoStaging: true, Metrics: &noStaging})

	if noEarly.EarlyFixes != 0 {
		t.Fatal("NoEarlyFix still early-fixed")
	}
	if noEarly.HeapOps() <= full.HeapOps() {
		t.Fatalf("disabling early fix should raise heap traffic: %d vs %d",
			noEarly.HeapOps(), full.HeapOps())
	}
	// Without staging, every relaxation becomes a push; with staging,
	// pushes are at most one per vertex per R-drain epoch.
	if noStaging.HeapPushes < full.HeapPushes {
		t.Fatalf("disabling staging should not reduce pushes: %d vs %d",
			noStaging.HeapPushes, full.HeapPushes)
	}
}

func TestParallelLLPPrimCounters(t *testing.T) {
	g := gen.RMAT(1, 10, 8, gen.WeightUniform, 5)
	var m WorkMetrics
	LLPPrimParallel(g, Options{Workers: 4, Metrics: &m})
	if m.EarlyFixes == 0 {
		t.Fatal("no early fixes recorded")
	}
	oracle := Kruskal(g)
	if int(m.EarlyFixes+m.HeapFixes) != len(oracle.EdgeIDs) {
		t.Fatalf("fixes %d+%d != tree edges %d", m.EarlyFixes, m.HeapFixes, len(oracle.EdgeIDs))
	}
}

func TestBoruvkaFamilyRoundCounters(t *testing.T) {
	g := gen.RoadNetwork(1, 64, 64, 0.2, 7)
	var seq, par, llpB WorkMetrics
	if _, err := Run(AlgBoruvka, g, Options{Metrics: &seq}); err != nil {
		t.Fatal(err)
	}
	ParallelBoruvka(g, Options{Workers: 4, Metrics: &par})
	LLPBoruvka(g, Options{Workers: 4, Metrics: &llpB})
	// Boruvka halves (at least) the component count per round: <= log2(n)+1
	// rounds, and at least 2 for any nontrivial graph.
	n := g.NumVertices()
	maxRounds := int64(2)
	for 1<<maxRounds < n {
		maxRounds++
	}
	for name, m := range map[string]*WorkMetrics{"boruvka": &seq, "boruvka-par": &par, "llp-boruvka": &llpB} {
		if m.Rounds < 2 || m.Rounds > maxRounds {
			t.Fatalf("%s: %d rounds outside [2, %d]", name, m.Rounds, maxRounds)
		}
	}
	if llpB.JumpAdvances == 0 || llpB.JumpRounds == 0 {
		t.Fatal("LLP-Boruvka recorded no pointer jumping")
	}
	if par.Unions != int64(n-1) {
		t.Fatalf("parallel boruvka unions %d, want %d", par.Unions, n-1)
	}

	// Dense leg: at m ≥ 3n LLP-Boruvka runs a light phase and then a heavy
	// phase, each a Borůvka recursion of at most ⌈log₂ n⌉+1 rounds.
	dense := gen.Geometric(1, 4096, gen.ConnectivityRadius(4096), 7)
	n = dense.NumVertices()
	logN := int64(0)
	for 1<<logN < n {
		logN++
	}
	probe := &cancelAt{cancel: func() {}}
	if _, err := LLPBoruvka(dense, Options{Workers: 4, Metrics: &llpB, Observer: probe}); err != nil {
		t.Fatal(err)
	}
	light := probe.relabel.Load()
	if dense.NumEdges() < 3*n || light < 1 || light > logN+1 || llpB.Rounds-light > logN+1 {
		t.Fatalf("llp-boruvka on n=%d m=%d: %d light + %d heavy rounds, want each in [1, %d]",
			n, dense.NumEdges(), light, llpB.Rounds-light, logN+1)
	}
	ParallelBoruvka(dense, Options{Workers: 4, Metrics: &par})
	if par.Rounds < 2 || par.Rounds > logN+1 {
		t.Fatalf("boruvka-par on n=%d m=%d: %d rounds outside [2, %d]", n, dense.NumEdges(), par.Rounds, logN+1)
	}
	t.Logf("dense n=%d m=%d: llp-boruvka %d light + %d heavy rounds, boruvka-par %d rounds",
		n, dense.NumEdges(), light, llpB.Rounds-light, par.Rounds)
}

func TestKruskalCounters(t *testing.T) {
	g := gen.Complete(20, 3)
	var m WorkMetrics
	if _, err := Run(AlgKruskal, g, Options{Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if m.Unions != 19 || m.Rounds != 1 {
		t.Fatalf("kruskal metrics %+v", m)
	}
}

func TestWorkMetricsAddAndString(t *testing.T) {
	a := WorkMetrics{HeapPushes: 1, HeapPops: 2, StalePops: 3, EarlyFixes: 4,
		HeapFixes: 5, Relaxations: 6, Rounds: 7, JumpRounds: 8, JumpAdvances: 9, Unions: 10}
	b := a
	b.Add(a)
	if b.HeapPushes != 2 || b.Unions != 20 || b.JumpAdvances != 18 {
		t.Fatalf("Add wrong: %+v", b)
	}
	if a.HeapOps() != 3 {
		t.Fatalf("HeapOps = %d", a.HeapOps())
	}
	s := a.String()
	for _, frag := range []string{"push=1", "earlyFix=4", "unions=10"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String missing %q: %s", frag, s)
		}
	}
}
