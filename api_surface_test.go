package llpmst

// Coverage for the public wrappers whose underlying implementations are
// tested in internal packages: each is exercised once end-to-end here so
// the exported API surface itself is verified.

import (
	"bytes"
	"context"
	"testing"
)

func TestAPIGeneratorsSmallWorldAndBA(t *testing.T) {
	sw := GenerateSmallWorld(400, 6, 0.2, 1)
	if sw.NumVertices() != 400 || sw.NumEdges() == 0 {
		t.Fatal("small world wrong")
	}
	ba := GeneratePreferentialAttachment(400, 3, 1)
	if !ba.Connected() {
		t.Fatal("BA graph disconnected")
	}
	oracle := Kruskal(ba)
	if f := LLPPrimAsync(ba, Options{Workers: 3}); !f.Equal(oracle) {
		t.Fatal("LLPPrimAsync disagrees")
	}
}

func TestAPIMarketClearing(t *testing.T) {
	prices, assign := MarketClearingPrices([][]int64{
		{5, 1}, {5, 2},
	})
	if len(prices) != 2 || len(assign) != 2 {
		t.Fatal("sizes wrong")
	}
	// Both want item 0; its price must rise above 0.
	if prices[0] == 0 {
		t.Fatalf("competitive item price stayed 0: %v", prices)
	}
	if assign[0] == assign[1] {
		t.Fatal("both buyers assigned the same item")
	}
}

func TestAPISolveLLPPriority(t *testing.T) {
	g := GenerateRoadNetwork(10, 10, 0.3, 5)
	// The exported priority entry point, with a custom wrapper predicate is
	// exercised in internal tests; here use it through ShortestPathsDijkstra
	// plus a direct call.
	d1 := ShortestPathsDijkstra(2, g, 0)
	d2 := ShortestPaths(LLPSequential, 1, g, 0)
	for v := range d1 {
		if d1[v] != d2[v] {
			t.Fatalf("dijkstra driver differs at %d", v)
		}
	}
}

func TestAPIMatrixMarketAndMETIS(t *testing.T) {
	g := GenerateErdosRenyi(60, 200, WeightInteger, 6)
	oracleWeight := Kruskal(g).Weight

	var mtx bytes.Buffer
	if err := WriteMatrixMarket(&mtx, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMatrixMarket(&mtx)
	if err != nil {
		t.Fatal(err)
	}
	if w := Kruskal(g2).Weight; w != oracleWeight {
		t.Fatalf("mtx round trip changed MSF weight: %g vs %g", w, oracleWeight)
	}

	var metis bytes.Buffer
	if err := WriteMETIS(&metis, g); err != nil {
		t.Fatal(err)
	}
	g3, err := ReadMETIS(&metis)
	if err != nil {
		t.Fatal(err)
	}
	if w := Kruskal(g3).Weight; w != oracleWeight {
		t.Fatalf("metis round trip changed MSF weight: %g vs %g", w, oracleWeight)
	}

	var bin bytes.Buffer
	if err := WriteBinaryGraph(&bin, g); err != nil {
		t.Fatal(err)
	}
	if bin.Len() == 0 {
		t.Fatal("empty binary output")
	}
}

func TestAPITraceStoreRoundTrip(t *testing.T) {
	tid, parent, flags, ok := ParseTraceparent(
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if !ok {
		t.Fatal("traceparent did not parse")
	}
	st := NewTraceStore(TraceStoreConfig{Capacity: 4})
	root := st.StartTrace("api.solve", tid, parent, flags)
	if !root.Valid() {
		t.Fatal("no trace slot available")
	}
	if got := FormatTraceparent(root.TraceID(), root.ID(), flags); len(got) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", got, len(got))
	}
	ctx := ContextWithTrace(context.Background(), root.Ref())
	ref := TraceRefFromContext(ctx)
	if !ref.Valid() || ref.TraceID() != tid {
		t.Fatalf("context ref = %+v, want trace %v", ref, tid)
	}
	child := ref.Start("api.child")
	child.SetInt("edges", 42)
	child.End()
	root.Finish()

	// The inbound sampled flag forces a tail-sample keep.
	d, ok := st.Get(tid)
	if !ok {
		t.Fatal("sampled trace was not kept")
	}
	if d.KeepReason != "forced" || len(d.Spans) != 2 {
		t.Fatalf("kept trace = reason %q with %d spans, want forced with 2",
			d.KeepReason, len(d.Spans))
	}
	var buf bytes.Buffer
	if err := d.WriteChromeTrace(&buf); err != nil || buf.Len() == 0 {
		t.Fatalf("chrome export: err=%v len=%d", err, buf.Len())
	}
}
