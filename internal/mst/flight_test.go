package mst

import (
	"sync"
	"testing"
	"time"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
	"llpmst/internal/obs"
)

// TestFlightRecorderCountersMatchWorkMetrics repeats the observer/metrics
// consistency check against the flight recorder: the per-wave delta
// streaming must sum to exactly the WorkMetrics totals, with worker
// attribution changing where counts land but never how much is counted.
func TestFlightRecorderCountersMatchWorkMetrics(t *testing.T) {
	g := gen.ErdosRenyi(1, 1000, 8000, gen.WeightUniform, 21)
	for _, alg := range []Algorithm{
		AlgLLPPrim, AlgLLPPrimParallel, AlgLLPPrimAsync,
		AlgParallelBoruvka, AlgLLPBoruvka,
	} {
		t.Run(string(alg), func(t *testing.T) {
			rec := obs.NewFlightRecorder(2, 1<<16)
			var m WorkMetrics
			if _, err := Run(alg, g, Options{Workers: 2, Observer: rec, Metrics: &m}); err != nil {
				t.Fatal(err)
			}
			checks := []struct {
				ctr  obs.Counter
				want int64
			}{
				{obs.CtrRounds, m.Rounds},
				{obs.CtrJumpRounds, m.JumpRounds},
				{obs.CtrJumpAdvances, m.JumpAdvances},
				{obs.CtrHeapPush, m.HeapPushes},
				{obs.CtrHeapPop, m.HeapPops},
				{obs.CtrEarlyFix, m.EarlyFixes},
			}
			for _, c := range checks {
				if got := rec.Counter(c.ctr); got != c.want {
					t.Errorf("streamed %s = %d, WorkMetrics says %d", c.ctr, got, c.want)
				}
			}
		})
	}
}

// TestFlightRecorderRoundSeriesFromAlgorithms drives real runs and checks
// the convergence view the tentpole exists for: the Boruvka families must
// produce one segment per contraction round, and the Prim families one
// segment per wave with early-fix / heap-pop activity recorded.
//
// LLP-Boruvka's live edges shrink strictly within each phase. On a graph
// with m >= 3n the rounds first run on the light edges; once those fall
// inside components, the llp-boruvka.relabel pass brings in the heavy
// survivors, so the gauge may rise once, at the round after that span. The
// dense geometric fixture keeps heavy survivors and must show the rise
// (its series reads 6618 → 960 → 190 → 22 → 1 → 971 → 382 → 51); the ER
// fixture's relabel pass keeps none.
func TestFlightRecorderRoundSeriesFromAlgorithms(t *testing.T) {
	g := gen.ErdosRenyi(1, 500, 4000, gen.WeightUniform, 33)

	for _, tc := range []struct {
		name     string
		g        *graph.CSR
		wantRise bool
	}{
		{"llp-boruvka", g, false},
		{"llp-boruvka-dense", gen.Geometric(1, 1000, gen.ConnectivityRadius(1000), 42), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewFlightRecorder(2, 1<<16)
			var m WorkMetrics
			if _, err := LLPBoruvka(tc.g, Options{Workers: 2, Observer: rec, Metrics: &m}); err != nil {
				t.Fatal(err)
			}
			// relabel is the round whose contraction ran the relabel pass
			// (0: none ran).
			var relabel int64
			for _, e := range rec.Events() {
				if e.Kind == obs.EvSpanEnd && rec.SpanName(e.ID) == "llp-boruvka.relabel" {
					if relabel != 0 {
						t.Fatalf("relabel spans in rounds %d and %d", relabel, e.Round)
					}
					relabel = int64(e.Round)
				}
			}
			series := rec.RoundSeries()
			if int64(len(series)) != m.Rounds {
				t.Fatalf("round series has %d segments, run had %d rounds", len(series), m.Rounds)
			}
			prev := int64(tc.g.NumEdges()) + 1
			var jumpAdvances int64
			rose := false
			for i, rs := range series {
				if rs.Round != int64(i+1) {
					t.Fatalf("segment %d carries round %d", i, rs.Round)
				}
				live, ok := rs.Gauge(obs.GaugeLiveEdges)
				if !ok {
					t.Fatalf("round %d has no live-edge sample", rs.Round)
				}
				switch {
				case relabel > 0 && rs.Round == relabel+1:
					rose = live > prev // a new phase: the heavy survivors
				case live >= prev:
					t.Fatalf("live edges did not shrink within a phase: round %d has %d, previous %d (relabel in round %d)",
						rs.Round, live, prev, relabel)
				}
				prev = live
				if rs.Counter(obs.CtrRounds) != 1 {
					t.Fatalf("round %d segment contains %d round counts", rs.Round, rs.Counter(obs.CtrRounds))
				}
				jumpAdvances += rs.Counter(obs.CtrJumpAdvances)
			}
			if tc.wantRise && !rose {
				t.Errorf("live edges never rose after the relabel pass (relabel in round %d of %d)", relabel, len(series))
			}
			if jumpAdvances != m.JumpAdvances {
				t.Errorf("per-round jump advances sum to %d, WorkMetrics says %d", jumpAdvances, m.JumpAdvances)
			}
		})
	}

	t.Run("llp-prim", func(t *testing.T) {
		rec := obs.NewFlightRecorder(1, 1<<16)
		var m WorkMetrics
		if _, err := LLPPrim(g, Options{Observer: rec, Metrics: &m}); err != nil {
			t.Fatal(err)
		}
		series := rec.RoundSeries()
		if len(series) == 0 {
			t.Fatal("no wave segments recorded")
		}
		var early, pops int64
		for _, rs := range series {
			early += rs.Counter(obs.CtrEarlyFix)
			pops += rs.Counter(obs.CtrHeapPop)
		}
		if early != m.EarlyFixes {
			t.Errorf("per-wave early fixes sum to %d, WorkMetrics says %d", early, m.EarlyFixes)
		}
		if pops != m.HeapPops {
			t.Errorf("per-wave heap pops sum to %d, WorkMetrics says %d", pops, m.HeapPops)
		}
	})
}

// TestFlightRecorderWorkerSpans checks that parallel runs actually put
// chunk spans on worker tracks — the "one track per worker" acceptance
// criterion, exercised end to end.
func TestFlightRecorderWorkerSpans(t *testing.T) {
	g := gen.ErdosRenyi(1, 3000, 30000, gen.WeightUniform, 7)
	rec := obs.NewFlightRecorder(4, 1<<16)
	gate := &twoWorkerGate{FlightRecorder: rec, seen: map[int]bool{}, both: make(chan struct{})}
	if _, err := LLPBoruvka(g, Options{Workers: 4, Observer: gate}); err != nil {
		t.Fatal(err)
	}
	workers := map[int16]bool{}
	for _, e := range rec.Events() {
		if e.Kind == obs.EvSpanEnd && rec.SpanName(e.ID) == "llp-boruvka.parents.chunk" {
			workers[e.Worker] = true
		}
	}
	if len(workers) < 2 {
		t.Fatalf("parent chunk spans on %d worker tracks, want >= 2 (%v)", len(workers), workers)
	}
	if _, ok := rec.SpanSummary("llp-boruvka.parents.chunk"); !ok {
		t.Fatal("no latency digest for the chunk span")
	}
}

// TestAutoWorkersRunOneTrack: an auto worker count (Workers: 0) runs a
// graph below the parallel share on one worker, so every parent chunk span
// lands on one track. An explicit two on the same graph still reaches the
// parallel path and puts the spans on two tracks.
func TestAutoWorkersRunOneTrack(t *testing.T) {
	g := gen.ErdosRenyi(1, 3000, 30000, gen.WeightUniform, 7)
	tracks := func(workers int) map[int16]bool {
		rec := obs.NewFlightRecorder(2, 1<<16)
		var col obs.Collector = rec
		if workers == 2 {
			col = &twoWorkerGate{FlightRecorder: rec, seen: map[int]bool{}, both: make(chan struct{})}
		}
		if _, err := LLPBoruvka(g, Options{Workers: workers, Observer: col}); err != nil {
			t.Fatal(err)
		}
		out := map[int16]bool{}
		for _, e := range rec.Events() {
			if e.Kind == obs.EvSpanEnd && rec.SpanName(e.ID) == "llp-boruvka.parents.chunk" {
				out[e.Worker] = true
			}
		}
		return out
	}
	if got := tracks(0); len(got) != 1 {
		t.Errorf("Workers: 0: parent chunk spans on %d worker tracks, want 1 (%v)", len(got), got)
	}
	if got := tracks(2); len(got) != 2 {
		t.Errorf("Workers: 2: parent chunk spans on %d worker tracks, want 2 (%v)", len(got), got)
	}
}

// twoWorkerGate is a FlightRecorder whose first worker to open a parent
// chunk span waits, up to a second, until a second worker opens one.
// Workers claim chunks dynamically, and the run has one parallel parent
// phase of two chunks, so on a busy host the worker that starts first can
// claim both before the other runs. The gate orders only the claims; which
// track each span lands on is still the recorder's and the algorithm's.
type twoWorkerGate struct {
	*obs.FlightRecorder
	mu   sync.Mutex
	seen map[int]bool
	both chan struct{} // closed once two workers have opened a chunk span
}

func (g *twoWorkerGate) Worker(w int) obs.Collector {
	return gatedWorker{Collector: g.FlightRecorder.Worker(w), gate: g, w: w}
}

func (g *twoWorkerGate) arrive(w int) {
	g.mu.Lock()
	if !g.seen[w] {
		g.seen[w] = true
		if len(g.seen) == 2 {
			close(g.both)
		}
	}
	g.mu.Unlock()
	select {
	case <-g.both:
	case <-time.After(time.Second):
	}
}

type gatedWorker struct {
	obs.Collector
	gate *twoWorkerGate
	w    int
}

func (c gatedWorker) Span(name string) func() {
	if name == "llp-boruvka.parents.chunk" {
		c.gate.arrive(c.w)
	}
	return c.Collector.Span(name)
}

// TestFlightRecorderSteadyStateAllocs: the enabled recorder must not
// reintroduce per-element allocation — a warm-workspace run with a flight
// recorder attached stays within the PR 3 per-algorithm bounds (the
// recorder's ring writes are allocation-free; only the driver's O(rounds)
// constants remain).
func TestFlightRecorderSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	g := stressGraph("sparse", 42)
	bounds := map[Algorithm]float64{
		AlgLLPPrim:         8,
		AlgLLPPrimParallel: 12,
		AlgLLPPrimAsync:    16,
		AlgParallelBoruvka: 32,
		AlgLLPBoruvka:      96,
	}
	for alg, bound := range bounds {
		t.Run(string(alg), func(t *testing.T) {
			rec := obs.NewFlightRecorder(1, 1<<16)
			ws := NewWorkspace()
			opts := Options{Workers: 1, Workspace: ws, Observer: rec}
			// Warm the workspace and the recorder's span intern table.
			if _, err := Run(alg, g, opts); err != nil {
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(10, func() {
				if _, err := Run(alg, g, opts); err != nil {
					t.Fatal(err)
				}
			})
			if n > bound {
				t.Errorf("steady-state allocs/run with recorder = %v, want <= %v", n, bound)
			}
		})
	}
}
