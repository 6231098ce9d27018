package llpmst_test

// Godoc examples for the main public entry points. Each doubles as a test
// (the Output comments are verified by `go test`).

import (
	"context"
	"errors"
	"fmt"

	"llpmst"
)

func paperGraph() *llpmst.Graph {
	// Fig. 1 of the paper: vertices a..e = 0..4, MST = {2, 3, 4, 7}.
	g, _ := llpmst.NewGraph(5, []llpmst.Edge{
		{U: 0, V: 2, W: 4}, {U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 3},
		{U: 1, V: 3, W: 7}, {U: 2, V: 3, W: 9}, {U: 2, V: 4, W: 11},
		{U: 3, V: 4, W: 2},
	})
	return g
}

func ExampleLLPPrim() {
	f := llpmst.LLPPrim(paperGraph(), llpmst.Options{})
	fmt.Println(f.Weight)
	// Output: 16
}

func ExampleLLPBoruvka() {
	f := llpmst.LLPBoruvka(paperGraph(), llpmst.Options{Workers: 2})
	fmt.Println(f.Weight, f.Trees)
	// Output: 16 1
}

func ExampleRun() {
	g := paperGraph()
	for _, alg := range []llpmst.Algorithm{llpmst.AlgPrim, llpmst.AlgKruskal, llpmst.AlgSemiringBoruvka} {
		f, err := llpmst.Run(alg, g, llpmst.Options{Workers: 2})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s %g\n", alg, f.Weight)
	}
	// Output:
	// prim 16
	// kruskal 16
	// semi-boruvka 16
}

func ExampleSemiringBoruvka() {
	// Pick the backend by density: the semiring (sparse-matrix) formulation
	// is aimed at very dense graphs (m >= 16n), whose rows are long enough
	// to amortize the matrix build; the pointer-based LLP-Boruvka serves
	// everything else.
	g := paperGraph()
	alg := llpmst.AlgLLPBoruvka
	if g.NumEdges() >= 16*g.NumVertices() {
		alg = llpmst.AlgSemiringBoruvka
	}
	f, err := llpmst.Run(alg, g, llpmst.Options{Workers: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println(alg, f.Weight)

	// Forcing the semiring backend directly gives the identical forest:
	// every backend returns the unique MSF under the (weight, id) order.
	fmt.Println(llpmst.SemiringBoruvka(g, llpmst.Options{Workers: 2}).Weight)
	// Output:
	// llp-boruvka 16
	// 16
}

func ExampleMinimumSpanningForestCtx() {
	g := paperGraph()

	// A live context: the run completes and returns the full forest.
	f, err := llpmst.MinimumSpanningForestCtx(context.Background(), g, llpmst.Options{})
	fmt.Println(f.Weight, err)

	// A cancelled context: the run returns promptly with an error wrapping
	// context.Canceled and a partial forest — always a subset of the
	// canonical MSF, so every edge in it is safe to use.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial, err := llpmst.MinimumSpanningForestCtx(ctx, g, llpmst.Options{})
	fmt.Println(errors.Is(err, context.Canceled), len(partial.EdgeIDs) <= 4)
	// Output:
	// 16 <nil>
	// true true
}

func ExampleOptions_observer() {
	// A RecordingObserver captures the run's telemetry: phase spans,
	// scheduler counters, contraction rounds, gauge maxima.
	rec := llpmst.NewRecordingObserver()
	f, err := llpmst.Run(llpmst.AlgLLPBoruvka, paperGraph(), llpmst.Options{
		Workers:  2,
		Observer: rec,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(f.Weight)
	fmt.Println(len(rec.Spans()) > 0)
	// Output:
	// 16
	// true
}

func ExampleNewFlightRecorder() {
	// A FlightRecorder streams a run's events into per-worker ring buffers
	// at zero allocation cost; afterwards it answers convergence questions
	// (how fast did the live edge set shrink?) and latency questions (what
	// was p95 of the mwe phase?), and can export the whole capture as a
	// Chrome trace or Prometheus text.
	rec := llpmst.NewFlightRecorder(2, 0)
	f, err := llpmst.MinimumSpanningForestCtx(context.Background(), paperGraph(), llpmst.Options{
		Workers:  2, // >1 worker selects LLP-Boruvka
		Observer: rec,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(f.Weight)
	for _, rs := range rec.RoundSeries() {
		live, _ := rs.Gauge(llpmst.GaugeLiveEdges)
		fmt.Printf("round %d: %d live edges, %d contraction\n",
			rs.Round, live, rs.Counter(llpmst.CtrRounds))
	}
	mwe, ok := rec.SpanSummary("llp-boruvka.mwe")
	fmt.Println(ok, mwe.Count == 2, mwe.P95 > 0)
	// Output:
	// 16
	// round 1: 7 live edges, 1 contraction
	// round 2: 3 live edges, 1 contraction
	// true true true
}

func ExampleOptions_workspace() {
	// A server answering repeated MSF queries reuses one Workspace: scratch
	// buffers grow to the largest graph seen and are then recycled, so
	// second-and-later runs allocate O(1) memory (just the returned Forest).
	// One Workspace serves one run at a time — keep one per goroutine.
	ws := llpmst.NewWorkspace()
	g := paperGraph()
	var total float64
	for i := 0; i < 3; i++ {
		f := llpmst.LLPPrim(g, llpmst.Options{Workers: 1, Workspace: ws})
		total += f.Weight
	}
	fmt.Println(total)
	// Output: 48
}

func ExampleVerifyMinimum() {
	g := paperGraph()
	f := llpmst.Prim(g)
	fmt.Println(llpmst.VerifyMinimum(g, f))
	// Output: <nil>
}

func ExampleOptions_metrics() {
	g := paperGraph()
	var prim, llpPrim llpmst.WorkMetrics
	llpmst.Run(llpmst.AlgPrim, g, llpmst.Options{Metrics: &prim})
	llpmst.LLPPrim(g, llpmst.Options{Metrics: &llpPrim})
	fmt.Println(llpPrim.HeapOps() < prim.HeapOps())
	fmt.Println(llpPrim.EarlyFixes > 0)
	// Output:
	// true
	// true
}

func ExampleNewIncrementalMSF() {
	inc := llpmst.NewIncrementalMSF(3)
	inc.Insert(0, 1, 5)
	inc.Insert(1, 2, 3)
	inc.Insert(2, 0, 1) // closes a cycle, evicts the weight-5 edge
	fmt.Println(inc.Edges(), inc.Weight())
	// Output: 2 4
}

func ExampleShortestPaths() {
	g, _ := llpmst.NewGraph(3, []llpmst.Edge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 0, V: 2, W: 10},
	})
	fmt.Println(llpmst.ShortestPaths(llpmst.LLPAsync, 2, g, 0))
	// Output: [0 2 5]
}

func ExampleMarketClearingPrices() {
	// Two buyers, both preferring item 0.
	prices, assign := llpmst.MarketClearingPrices([][]int64{{5, 1}, {5, 2}})
	fmt.Println(len(prices), assign[0] != assign[1])
	// Output: 2 true
}

func ExampleConnectedComponents() {
	g, _ := llpmst.NewGraph(4, []llpmst.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	fmt.Println(llpmst.ConnectedComponents(llpmst.LLPSequential, 1, g))
	// Output: [0 0 2 2]
}
