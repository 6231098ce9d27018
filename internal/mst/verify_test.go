package mst

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
)

func TestCheckForestRejectsCorruptions(t *testing.T) {
	g := gen.Complete(12, 5)
	good := Kruskal(g)
	if err := CheckForest(g, good); err != nil {
		t.Fatalf("good forest rejected: %v", err)
	}

	corrupt := func(mutate func(f *Forest)) *Forest {
		f := &Forest{
			N:       good.N,
			EdgeIDs: slices.Clone(good.EdgeIDs),
			Weight:  good.Weight,
			Trees:   good.Trees,
		}
		mutate(f)
		return f
	}

	cases := []struct {
		name   string
		forest *Forest
	}{
		{"wrong-n", corrupt(func(f *Forest) { f.N++ })},
		{"edge-out-of-range", corrupt(func(f *Forest) { f.EdgeIDs[0] = uint32(g.NumEdges()) })},
		{"duplicate-edge", corrupt(func(f *Forest) { f.EdgeIDs[1] = f.EdgeIDs[0] })},
		{"missing-edge", corrupt(func(f *Forest) { f.EdgeIDs = f.EdgeIDs[:len(f.EdgeIDs)-1] })},
		{"wrong-weight", corrupt(func(f *Forest) { f.Weight += 1 })},
		{"wrong-trees", corrupt(func(f *Forest) { f.Trees++ })},
		// Consistent in every field but not spanning: only the check that no
		// graph edge joins two trees can reject it.
		{"not-spanning", corrupt(func(f *Forest) {
			f.EdgeIDs = f.EdgeIDs[1:]
			f.Weight = 0
			for _, id := range f.EdgeIDs {
				f.Weight += float64(g.Edge(id).W)
			}
			f.Trees++
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := CheckForest(g, tc.forest); err == nil {
				t.Fatal("corrupt forest accepted")
			}
		})
	}
}

func TestCheckForestRejectsCycle(t *testing.T) {
	// 4 vertices in a cycle; a "forest" containing all 4 cycle edges.
	g := gen.Cycle(4, 1)
	ids := []uint32{0, 1, 2, 3}
	var w float64
	for _, id := range ids {
		w += float64(g.Edge(id).W)
	}
	f := &Forest{N: 4, EdgeIDs: ids, Weight: w, Trees: 0}
	if err := CheckForest(g, f); err == nil {
		t.Fatal("cyclic edge set accepted")
	}
}

func TestVerifyMinimumRejectsNonMinimalSpanningTree(t *testing.T) {
	// Build a spanning tree that is valid but not minimal: take Kruskal's
	// MST, remove its heaviest edge, and reconnect the two sides with a
	// strictly heavier non-tree edge.
	g := gen.Complete(10, 7)
	mst := Kruskal(g)
	inTree := make([]bool, g.NumEdges())
	for _, id := range mst.EdgeIDs {
		inTree[id] = true
	}
	// Heaviest tree edge by key.
	var heavyIdx int
	var heavyKey uint64
	for i, id := range mst.EdgeIDs {
		if k := g.EdgeKey(id); k > heavyKey {
			heavyKey, heavyIdx = k, i
		}
	}
	removed := mst.EdgeIDs[heavyIdx]
	rest := slices.Delete(slices.Clone(mst.EdgeIDs), heavyIdx, heavyIdx+1)
	// Find the two components of the tree minus the removed edge.
	sub := graph.MustFromEdges(1, g.NumVertices(), edgesOf(g, rest))
	labels, _ := sub.Components()
	e := g.Edge(removed)
	// A non-tree edge crossing the same cut, heavier than the removed edge.
	var swap uint32
	found := false
	for id := 0; id < g.NumEdges(); id++ {
		if inTree[id] {
			continue
		}
		c := g.Edge(uint32(id))
		if labels[c.U] != labels[c.V] && g.EdgeKey(uint32(id)) > heavyKey {
			swap, found = uint32(id), true
			break
		}
	}
	if !found {
		t.Skip("no heavier crossing edge in this instance")
	}
	bad := append(rest, swap)
	slices.Sort(bad)
	var w float64
	for _, id := range bad {
		w += float64(g.Edge(id).W)
	}
	f := &Forest{N: g.NumVertices(), EdgeIDs: bad, Weight: w, Trees: 1}
	if err := CheckForest(g, f); err != nil {
		t.Fatalf("swapped tree should still be a valid spanning tree: %v", err)
	}
	if err := VerifyMinimum(g, f); err == nil {
		t.Fatal("non-minimal spanning tree accepted as minimal")
	}
	_ = e
}

func edgesOf(g *graph.CSR, ids []uint32) []graph.Edge {
	out := make([]graph.Edge, 0, len(ids))
	for _, id := range ids {
		out = append(out, g.Edge(id))
	}
	return out
}

func TestVerifyMinimumAcceptsAllAlgorithmsOnBiggerGraph(t *testing.T) {
	g := gen.RMAT(1, 10, 8, gen.WeightUniform, 77)
	for _, alg := range Algorithms() {
		f, err := Run(alg, g, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyMinimum(g, f); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}

func TestVerifyMinimumEmptyAndTiny(t *testing.T) {
	empty := graph.MustFromEdges(1, 0, nil)
	if err := VerifyMinimum(empty, Kruskal(empty)); err != nil {
		t.Fatal(err)
	}
	single := graph.MustFromEdges(1, 1, nil)
	if err := VerifyMinimum(single, Kruskal(single)); err != nil {
		t.Fatal(err)
	}
	pair := graph.MustFromEdges(1, 2, []graph.Edge{{U: 0, V: 1, W: 9}})
	if err := VerifyMinimum(pair, Kruskal(pair)); err != nil {
		t.Fatal(err)
	}
}

func TestPathMaxIndexQueries(t *testing.T) {
	// Path 0-1-2-3-4 with weights 10, 20, 30, 40: max on path(0,4) = 40.
	g := gen.Path(5, []float32{10, 20, 30, 40})
	f := Kruskal(g)
	idx := newPathMaxIndex(g, f)
	tests := []struct {
		u, v uint32
		want float32
	}{
		{0, 4, 40}, {0, 1, 10}, {1, 3, 30}, {4, 0, 40}, {2, 2, 0},
	}
	for _, tc := range tests {
		key, same := idx.pathMax(tc.u, tc.v)
		if !same {
			t.Fatalf("path(%d,%d): not same tree", tc.u, tc.v)
		}
		if tc.u == tc.v {
			if key != 0 {
				t.Fatalf("path(%d,%d) = %d, want 0", tc.u, tc.v, key)
			}
			continue
		}
		if got := g.Edge(keyID(key)).W; got != tc.want {
			t.Fatalf("path(%d,%d) max weight %v, want %v", tc.u, tc.v, got, tc.want)
		}
	}
	// Different trees.
	d := gen.Disconnected(2, 4, 3)
	fd := Kruskal(d)
	idx2 := newPathMaxIndex(d, fd)
	if _, same := idx2.pathMax(0, 5); same {
		t.Fatal("vertices in different trees reported as connected")
	}
}

// TestSortIDsMatchesSlicesSort: the forest-id sort gives slices.Sort's
// output on every input shape, from empty and tiny lists to ones longer
// than the digit's counting array, with ids needing one, two and three
// digit passes — duplicates and ids past any graph's edge count included,
// since newForest sorts whatever it is given.
func TestSortIDsMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := map[string]func(n int, top uint32) []uint32{
		"random": func(n int, top uint32) []uint32 {
			ids := make([]uint32, n)
			for i := range ids {
				ids[i] = uint32(rng.Int63n(int64(top) + 1))
			}
			return ids
		},
		"sorted": func(n int, top uint32) []uint32 {
			ids := make([]uint32, n)
			for i := range ids {
				ids[i] = uint32(uint64(i) * uint64(top) / uint64(n))
			}
			return ids
		},
		"reversed": func(n int, top uint32) []uint32 {
			ids := make([]uint32, n)
			for i := range ids {
				ids[n-1-i] = uint32(uint64(i) * uint64(top) / uint64(n))
			}
			return ids
		},
		"duplicates": func(n int, top uint32) []uint32 {
			ids := make([]uint32, n)
			for i := range ids {
				ids[i] = []uint32{0, top / 2, top}[rng.Intn(3)]
			}
			return ids
		},
	}
	for _, n := range []int{0, 1, 2, 3, 255, 256, 1<<radixBits + 1, 3<<radixBits + 7} {
		for _, top := range []uint32{1<<radixBits - 1, 1 << radixBits, 1<<(2*radixBits) + 5, math.MaxUint32} {
			for name, shape := range shapes {
				ids := shape(n, top)
				want := slices.Clone(ids)
				slices.Sort(want)
				for _, scratch := range [][]uint32{nil, make([]uint32, n)} {
					got := slices.Clone(ids)
					sortIDs(got, scratch)
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d top=%d %s scratch=%v: sortIDs differs from slices.Sort", n, top, name, scratch != nil)
					}
				}
			}
		}
	}
}

// TestCheckForestRejectsRadixSortedCorruptions: radix-sorted forests still
// fail CheckForest with a duplicate id or one at or past m, and a clean one
// passes with its weight summed in sorted order.
func TestCheckForestRejectsRadixSortedCorruptions(t *testing.T) {
	g := gen.RoadNetwork(1, 24, 24, 0.2, 3)
	good := Kruskal(g)
	shuffled := slices.Clone(good.EdgeIDs)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if f := ForestFromEdgeIDs(g, shuffled); !f.Equal(good) || f.Weight != good.Weight {
		t.Fatalf("shuffled ids: forest %v, want %v", f, good)
	}
	dup := slices.Clone(shuffled)
	dup[len(dup)/2] = dup[0]
	if err := CheckForest(g, ForestFromEdgeIDs(g, dup)); err == nil {
		t.Fatal("forest with a duplicate id accepted")
	}
	// An id at or past m cannot be weighed, so the forest is built by hand
	// from the sorted ids, as a decoder of untrusted ids would.
	bad := slices.Clone(shuffled)
	bad[3] = uint32(g.NumEdges())
	sortIDs(bad, nil)
	f := &Forest{N: good.N, EdgeIDs: bad, Weight: good.Weight, Trees: good.Trees}
	if err := CheckForest(g, f); err == nil {
		t.Fatal("forest with an out-of-range id accepted")
	}
}
