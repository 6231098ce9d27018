package mst

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
	"llpmst/internal/obs"
)

// edgesAmong draws m edges with distinct endpoints in [lo, hi), edge i
// weighing w(i).
func edgesAmong(rng *rand.Rand, m int, lo, hi uint32, w func(i int) float32) []graph.Edge {
	edges := make([]graph.Edge, m)
	span := int(hi - lo)
	for i := range edges {
		u := rng.Intn(span)
		v := (u + 1 + rng.Intn(span-1)) % span
		edges[i] = graph.Edge{U: lo + uint32(u), V: lo + uint32(v), W: w(i)}
	}
	return edges
}

// filterRow is one light-edge filter case: its graph, and whether m ≥ 3n.
type filterRow struct {
	name   string
	g      *graph.CSR
	filter bool
}

// filterRows are LLP-Boruvka's light-edge filter cases: either side of the
// m = 3n switch, a pivot that cuts equal weights by id, a hub that every
// light edge touches (so the relabel pass carries nearly every edge), and
// a disconnected graph with isolated vertices.
func filterRows() []filterRow {
	rng := rand.New(rand.NewSource(22))
	uniform := func(int) float32 { return rng.Float32() * 100 }
	one := func(int) float32 { return 1 }

	var hub []graph.Edge
	for r := 0; r < 5; r++ {
		for v := uint32(1); v <= 200; v++ {
			hub = append(hub, graph.Edge{U: 0, V: v, W: 1})
		}
	}
	hub = append(hub, edgesAmong(rng, 1200, 0, 400, func(int) float32 { return 2 + rng.Float32()*98 })...)

	var split []graph.Edge
	split = append(split, edgesAmong(rng, 600, 0, 150, uniform)...)
	split = append(split, edgesAmong(rng, 600, 150, 300, uniform)...)
	split = append(split, edgesAmong(rng, 400, 300, 350, uniform)...) // 350..499 isolated

	return []filterRow{
		{"m=3n-1", graph.MustFromEdges(1, 400, edgesAmong(rng, 3*400-1, 0, 400, uniform)), false},
		{"m=3n", graph.MustFromEdges(1, 400, edgesAmong(rng, 3*400, 0, 400, uniform)), true},
		{"equal-weights", graph.MustFromEdges(1, 300, edgesAmong(rng, 1500, 0, 300, one)), true},
		{"hub", graph.MustFromEdges(1, 400, hub), true},
		{"disconnected-isolated", graph.MustFromEdges(1, 500, split), true},
	}
}

// TestLLPBoruvkaFilterPaths: on every filter case and at 1, 2 and 8
// workers the forest is Kruskal's, and a flight recording shows the
// filter's pivot span and its relabel pass exactly when m ≥ 3n.
func TestLLPBoruvkaFilterPaths(t *testing.T) {
	for _, row := range filterRows() {
		n, m := row.g.NumVertices(), row.g.NumEdges()
		if (m >= 3*n) != row.filter {
			t.Fatalf("%s: fixture has n=%d m=%d, want filter=%v", row.name, n, m, row.filter)
		}
		oracle := Kruskal(row.g)
		for _, p := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", row.name, p), func(t *testing.T) {
				rec := obs.NewFlightRecorder(p, 1<<16)
				f, err := LLPBoruvka(row.g, Options{Workers: p, Observer: rec})
				if err != nil {
					t.Fatal(err)
				}
				if !f.Equal(oracle) {
					t.Fatalf("forest differs from Kruskal's: %d vs %d edges, weight %g vs %g",
						len(f.EdgeIDs), len(oracle.EdgeIDs), f.Weight, oracle.Weight)
				}
				for _, span := range []string{"llp-boruvka.filter", "llp-boruvka.relabel"} {
					if _, ok := rec.SpanSummary(span); ok != row.filter {
						t.Errorf("span %s recorded = %v, want %v (n=%d m=%d)", span, ok, row.filter, n, m)
					}
				}
			})
		}
	}
}

// cancelAt is a test collector that cancels its run when a named span
// opens or a given round starts, and records the round in which the
// relabel pass ran.
type cancelAt struct {
	obs.Nop
	span    string
	round   int64
	cancel  context.CancelFunc
	cur     atomic.Int64
	relabel atomic.Int64
}

func (c *cancelAt) Span(name string) func() {
	if name == "llp-boruvka.relabel" {
		c.relabel.CompareAndSwap(0, c.cur.Load())
	}
	if name == c.span {
		c.cancel()
	}
	return c.Nop.Span(name)
}

func (c *cancelAt) Round(r int64) {
	c.cur.Store(r)
	if r == c.round {
		c.cancel()
	}
}

// TestLLPBoruvkaCancelAtEveryPhase cancels a filtered run at fixed points:
// when the filter's pivot span opens, when the relabel pass opens, and at
// every round mark of the light and the heavy phase. Each run returns an
// error wrapping context.Canceled and a partial forest that is a subset of
// Kruskal's, holding exactly the edges of the rounds before the cancel.
func TestLLPBoruvkaCancelAtEveryPhase(t *testing.T) {
	g := gen.Geometric(1, 2000, gen.ConnectivityRadius(2000), 5)
	oracle := Kruskal(g)
	inMSF := make(map[uint32]bool, len(oracle.EdgeIDs))
	for _, id := range oracle.EdgeIDs {
		inMSF[id] = true
	}
	probe := &cancelAt{cancel: func() {}}
	var m WorkMetrics
	must(LLPBoruvka(g, Options{Workers: 2, Observer: probe, Metrics: &m}))
	light := probe.relabel.Load()
	if g.NumEdges() < 3*g.NumVertices() || light == 0 || light >= m.Rounds {
		t.Fatalf("fixture does not reach a heavy phase: n=%d m=%d, relabel after round %d of %d",
			g.NumVertices(), g.NumEdges(), light, m.Rounds)
	}
	for _, p := range []int{1, 2} {
		run := func(c *cancelAt) []uint32 {
			t.Helper()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c.cancel = cancel
			f, err := LLPBoruvka(g, Options{Ctx: ctx, Workers: p, Observer: c})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("p=%d span=%q round=%d: error %v does not wrap context.Canceled", p, c.span, c.round, err)
			}
			for _, id := range f.EdgeIDs {
				if !inMSF[id] {
					t.Fatalf("p=%d span=%q round=%d: partial forest has non-MSF edge %d", p, c.span, c.round, id)
				}
			}
			return f.EdgeIDs
		}
		if got := run(&cancelAt{span: "llp-boruvka.filter"}); len(got) != 0 {
			t.Fatalf("p=%d: cancel at the filter span kept %d edges, want 0", p, len(got))
		}
		prev := -1
		for r := int64(1); r <= m.Rounds; r++ {
			got := len(run(&cancelAt{round: r}))
			if got <= prev || (r == 1 && got != 0) {
				t.Fatalf("p=%d: cancel at round %d kept %d edges, after %d at the round before", p, r, got, prev)
			}
			prev = got
			if r == light+1 {
				if atRelabel := len(run(&cancelAt{span: "llp-boruvka.relabel"})); atRelabel != got {
					t.Fatalf("p=%d: cancel at the relabel pass kept %d edges, cancel at round %d kept %d", p, atRelabel, r, got)
				}
			}
		}
		if prev >= len(oracle.EdgeIDs) {
			t.Fatalf("p=%d: cancel at the last round kept all %d edges", p, prev)
		}
	}
}
