package graph_test

import (
	"bytes"
	"slices"
	"testing"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
)

// TestFromEdgesParallelMatchesSerial pins FromEdges' determinism on the
// chunked path (m ≥ 2^15 edges, beyond FuzzReadBinary's input cap): at every
// worker count the CSR must equal the one-worker build byte for byte — the
// same canonical edge list and the same arcs in the same order — and pass
// Validate. The loader's deferred build must give those same arcs for the
// same edge list, self-loops included, read back at any worker count.
func TestFromEdgesParallelMatchesSerial(t *testing.T) {
	er := gen.ErdosRenyi(1, 1<<12, 1<<16, gen.WeightUniform, 3)
	// Self-loops scattered through every chunk exercise the compaction of
	// the canonical edge list.
	var looped []graph.Edge
	for i, e := range er.Edges() {
		if i%7 == 3 {
			looped = append(looped, graph.Edge{U: e.V, V: e.V, W: e.W})
		}
		looped = append(looped, e)
	}
	inputs := []struct {
		name  string
		n     int
		edges []graph.Edge
	}{
		{"road", 180 * 180, gen.RoadNetwork(1, 180, 180, 0.2, 2).Edges()},
		// R-MAT's hub vertices have rows that span every chunk.
		{"rmat", 1 << 12, gen.RMAT(1, 12, 16, gen.WeightUniform, 5).Edges()},
		{"er", 1 << 12, er.Edges()},
		{"geo", 1 << 13, gen.Geometric(1, 1<<13, gen.ConnectivityRadius(1<<13), 4).Edges()},
		{"er+loops", 1 << 12, looped},
	}
	for _, in := range inputs {
		if len(in.edges) < 1<<15 {
			t.Fatalf("%s: %d edges, below the chunked path's 2^15", in.name, len(in.edges))
		}
		want, wantBytes := buildAndEncode(t, 1, in.n, in.edges)
		for _, p := range []int{2, 3, 8} {
			got, gotBytes := buildAndEncode(t, p, in.n, in.edges)
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("%s p=%d: WriteBinary output differs from p=1", in.name, p)
			}
			if v, a, ok := sameArcs(want, got); !ok {
				t.Fatalf("%s p=%d: vertex %d arc %d differs from p=1", in.name, p, v, a)
			}
		}
		// WriteBinary reads only the edge list, so the hook's unchecked
		// graph writes the input as it is, self-loops and all.
		var raw bytes.Buffer
		if err := graph.WriteBinary(&raw, graph.DeferEdges(1, in.n, in.edges)); err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 8} {
			loaded, err := graph.ReadBinary(p, bytes.NewReader(raw.Bytes()))
			if err != nil {
				t.Fatalf("%s ReadBinary p=%d: %v", in.name, p, err)
			}
			if err := loaded.Validate(); err != nil {
				t.Fatalf("%s ReadBinary p=%d: %v", in.name, p, err)
			}
			if v, a, ok := sameArcs(want, loaded); !ok {
				t.Fatalf("%s ReadBinary p=%d: vertex %d arc %d differs from FromEdges p=1", in.name, p, v, a)
			}
		}
	}
}

func buildAndEncode(t *testing.T, p, n int, edges []graph.Edge) (*graph.CSR, []byte) {
	t.Helper()
	g, err := graph.FromEdges(p, n, slices.Clone(edges))
	if err != nil {
		t.Fatalf("p=%d: %v", p, err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("p=%d: %v", p, err)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return g, buf.Bytes()
}

// sameArcs compares the arc arrays of a and b, vertex by vertex, and
// returns the first vertex and arc index where they differ.
func sameArcs(a, b *graph.CSR) (v uint32, arc int64, ok bool) {
	if a.NumVertices() != b.NumVertices() || a.NumArcs() != b.NumArcs() {
		return 0, -1, false
	}
	for v := uint32(0); int(v) < a.NumVertices(); v++ {
		lo, hi := a.ArcRange(v)
		if blo, bhi := b.ArcRange(v); blo != lo || bhi != hi {
			return v, -1, false
		}
		for x := lo; x < hi; x++ {
			if a.Target(x) != b.Target(x) || a.ArcWeight(x) != b.ArcWeight(x) || a.ArcEdgeID(x) != b.ArcEdgeID(x) {
				return v, x, false
			}
		}
	}
	return 0, 0, true
}
