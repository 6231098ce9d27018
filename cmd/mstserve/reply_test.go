package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestWriteSolveReplyMatchesReflection: the hand-appended edge ids decode
// to the same values as the encoding/json reply they replace, for one-shot
// and registry replies, with and without ?edges=1, and with the fallback,
// hedge, cached and shared flags set; the Content-Type is unchanged. The
// cases run in parallel, so under -race they also check that concurrent
// replies never share a pooled buffer.
func TestWriteSolveReplyMatchesReflection(t *testing.T) {
	base := solveReply{
		Vertices: 6, Edges: 9, ForestEdges: 5, Weight: 12.5,
		Algorithm: "llp-boruvka", Verified: true, Attempts: 1, ElapsedMS: 0.734,
	}
	fallback := base
	fallback.Algorithm, fallback.Fallback, fallback.Attempts = "kruskal", true, 3
	hedged := base
	hedged.Hedged, hedged.HedgeWon, hedged.Weight, hedged.ElapsedMS = true, true, 1e-7, 1e21
	many := make([]uint32, 65535)
	for i := range many {
		many[i] = uint32(i) * 2654435761
	}
	ids := []uint32{0, 3, 4, 9, 4294967295}
	cases := []struct {
		name  string
		reply any
		ids   []uint32
	}{
		{"solve", base, nil},
		{"solve-edges", base, ids},
		{"solve-edges-empty-forest", solveReply{Vertices: 1, Algorithm: "prim"}, []uint32{}},
		{"solve-65535-edges", base, many},
		{"solve-fallback-edges", fallback, ids},
		{"solve-hedged", hedged, nil},
		{"registry", registrySolveReply{solveReply: base, GraphID: "g1", GraphVersion: 3}, nil},
		{"registry-edges", registrySolveReply{solveReply: base, GraphID: "g1", GraphVersion: 3}, ids},
		{"registry-cached", registrySolveReply{solveReply: base, GraphID: "a<b>&c", GraphVersion: 1, Cached: true}, ids},
		{"registry-shared", registrySolveReply{solveReply: hedged, GraphID: "g2", GraphVersion: 7, Shared: true}, nil},
		{"registry-fallback-cached-shared", registrySolveReply{solveReply: fallback, GraphID: "g3", GraphVersion: 2, Cached: true, Shared: true}, many},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel() // the cases share writeSolveReply's buffer pool
			var old bytes.Buffer
			if err := json.NewEncoder(&old).Encode(withIDs(c.reply, c.ids)); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			writeSolveReply(rec, c.reply, c.ids)
			if got := rec.Header().Get("Content-Type"); got != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", got)
			}
			body := rec.Body.String()
			if !strings.HasSuffix(body, "}\n") {
				t.Fatalf("reply does not end in an object and a newline: %q", body[max(0, len(body)-20):])
			}
			if want, got := decodeReply(t, old.Bytes()), decodeReply(t, rec.Body.Bytes()); !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded reply differs:\n got  %.300v\n want %.300v", got, want)
			}
		})
	}
}

// withIDs returns reply with its EdgeIDs set, as the handlers built it
// before writeSolveReply.
func withIDs(reply any, ids []uint32) any {
	switch r := reply.(type) {
	case solveReply:
		r.EdgeIDs = ids
		return r
	case registrySolveReply:
		r.EdgeIDs = ids
		return r
	}
	panic("unknown reply type")
}

// decodeReply decodes one JSON object, keeping numbers exact, and fails on
// trailing data.
func decodeReply(t *testing.T, b []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v map[string]any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("decode %.200q: %v", b, err)
	}
	if dec.More() {
		t.Fatalf("trailing data after the reply object")
	}
	return v
}
