package resilient

import (
	"context"
	"testing"
	"time"

	"llpmst/internal/fault"
	"llpmst/internal/gen"
	"llpmst/internal/mst"
	"llpmst/internal/obs"
)

// waitTrace polls for a trace to seal: hedge-loser spans keep a trace open
// past Solve's return, so the seal lags the response by the loser's
// cancellation latency.
func waitTrace(t *testing.T, st *obs.TraceStore, id obs.TraceID) obs.TraceData {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if d, ok := st.Get(id); ok {
			return d
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("trace %v never sealed", id)
	return obs.TraceData{}
}

// TestHedgedSolvesEmitConsistentTraces drives the leak test's harness — a
// stalled primary forcing a hedge win on every solve — with a trace per
// request. The losing leg emits its span from a separate goroutine after
// the winner has already returned, which is exactly the concurrent-span
// scenario the packed trace state has to survive (run under -race in CI).
func TestHedgedSolvesEmitConsistentTraces(t *testing.T) {
	const solves = 200
	g := gen.ErdosRenyi(1, 300, 1200, gen.WeightUniform, 41)

	primary, backup := mst.AlgLLPBoruvka, mst.AlgLLPPrimAsync
	r := New(Config{
		Primary:    primary,
		Backup:     backup,
		Workers:    2,
		HedgeDelay: time.Millisecond,
		Chaos: &Chaos{
			Plan: fault.Plan{
				Seed: 42,
				Arcs: map[int64]fault.Probs{
					ChaosArc(primary): {Delay: 1, MaxDelay: 2},
				},
			},
			Unit: time.Second,
		},
	})
	st := obs.NewTraceStore(obs.TraceStoreConfig{
		Capacity: solves + 8, MaxActive: 64, SpanCap: 32, SlowWarmup: 1 << 30,
	})

	ids := make([]obs.TraceID, 0, solves)
	for i := 0; i < solves; i++ {
		root := st.StartTrace("solve", obs.TraceID{}, obs.SpanID{}, obs.FlagSampled)
		ctx := obs.ContextWithTrace(context.Background(), root.Ref())
		res, err := r.Solve(ctx, g)
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if !res.Hedged || !res.HedgeWon {
			t.Fatalf("solve %d: want a hedge win, got %+v", i, res)
		}
		ids = append(ids, root.TraceID())
		root.Finish()
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := r.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	for i, id := range ids {
		d := waitTrace(t, st, id)
		var winners, losers, solveSpans int
		for _, sp := range d.Spans {
			switch sp.Name {
			case "resilient.solve":
				solveSpans++
				if sp.Attrs["winner"] != string(backup) {
					t.Fatalf("trace %d: solve span winner = %v, want %s", i, sp.Attrs["winner"], backup)
				}
				if sp.Attrs["hedged"] != int64(1) {
					t.Fatalf("trace %d: solve span not marked hedged: %v", i, sp.Attrs)
				}
			case "resilient.leg":
				switch sp.Attrs["leg"] {
				case "winner":
					winners++
					if sp.Attrs["alg"] != string(backup) {
						t.Fatalf("trace %d: winner leg alg = %v, want %s", i, sp.Attrs["alg"], backup)
					}
				case "loser":
					losers++
					if sp.Attrs["outcome"] != "cancelled" {
						t.Fatalf("trace %d: loser leg outcome = %v, want cancelled", i, sp.Attrs["outcome"])
					}
				default:
					t.Fatalf("trace %d: leg span with no winner/loser mark: %v", i, sp.Attrs)
				}
			}
		}
		if solveSpans != 1 || winners != 1 || losers != 1 {
			t.Fatalf("trace %d: solve=%d winner=%d loser=%d spans, want 1/1/1 (spans: %+v)",
				i, solveSpans, winners, losers, d.Spans)
		}
	}
}

// TestLegSpanCarriesResolvedWorkers: a leg span records the worker count
// its algorithm ran on. An auto count (Workers: 0) resolves to one worker
// on a small graph, and an explicit count is passed through unchanged.
func TestLegSpanCarriesResolvedWorkers(t *testing.T) {
	g := gen.ErdosRenyi(1, 300, 1200, gen.WeightUniform, 41)
	for _, tc := range []struct{ cfg, want int }{{0, 1}, {3, 3}} {
		r := New(Config{Workers: tc.cfg, DisableHedge: true})
		st := obs.NewTraceStore(obs.TraceStoreConfig{Capacity: 8, MaxActive: 8, SpanCap: 32, SlowWarmup: 1 << 30})
		root := st.StartTrace("solve", obs.TraceID{}, obs.SpanID{}, obs.FlagSampled)
		if _, err := r.Solve(obs.ContextWithTrace(context.Background(), root.Ref()), g); err != nil {
			t.Fatal(err)
		}
		root.Finish()
		legs := 0
		for _, sp := range waitTrace(t, st, root.TraceID()).Spans {
			if sp.Name != "resilient.leg" {
				continue
			}
			legs++
			if sp.Attrs["workers"] != int64(tc.want) {
				t.Errorf("Workers: %d: leg span workers = %v, want %d", tc.cfg, sp.Attrs["workers"], tc.want)
			}
		}
		if legs == 0 {
			t.Fatalf("Workers: %d: no resilient.leg span", tc.cfg)
		}
	}
}
