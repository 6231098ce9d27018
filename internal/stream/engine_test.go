package stream

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"llpmst/internal/graph"
	"llpmst/internal/mst"
)

// liveOracle mirrors the engine's op semantics on a plain ordered edge
// list: inserts append, deletes remove the earliest exact (u, v, w) match.
type liveOracle struct {
	n     int
	edges []graph.Edge
}

func (o *liveOracle) apply(ops []Op) {
	for _, op := range ops {
		if !op.Delete {
			o.edges = append(o.edges, graph.Edge{U: op.U, V: op.V, W: op.W})
			continue
		}
		for i, e := range o.edges {
			// Edges are undirected: a delete matches either orientation.
			if e.W == op.W && ((e.U == op.U && e.V == op.V) || (e.U == op.V && e.V == op.U)) {
				o.edges = append(o.edges[:i], o.edges[i+1:]...)
				break
			}
		}
	}
}

type canonEdge struct {
	u, v uint32
	w    float32
}

func canon(u, v uint32, w float32) canonEdge {
	if u > v {
		u, v = v, u
	}
	return canonEdge{u, v, w}
}

// checkAgainstOracle asserts the engine's forest is exactly the canonical
// MSF (as an edge multiset) of the oracle's live edge list.
func checkAgainstOracle(tb testing.TB, e *Engine, o *liveOracle) {
	tb.Helper()
	cp := make([]graph.Edge, len(o.edges))
	copy(cp, o.edges)
	g := graph.MustFromEdges(1, o.n, cp)
	want := mst.Kruskal(g)
	got := e.Forest()
	if len(got) != len(want.EdgeIDs) {
		tb.Fatalf("forest has %d edges, oracle %d", len(got), len(want.EdgeIDs))
	}
	st := e.Stats()
	if st.Trees != want.Trees {
		tb.Fatalf("forest has %d trees, oracle %d", st.Trees, want.Trees)
	}
	counts := map[canonEdge]int{}
	for _, ed := range got {
		counts[canon(ed.U, ed.V, ed.W)]++
	}
	for _, id := range want.EdgeIDs {
		ed := g.Edge(id)
		counts[canon(ed.U, ed.V, ed.W)]--
	}
	for c, k := range counts {
		if k != 0 {
			tb.Fatalf("forest multiset differs from oracle at %+v (%+d)", c, k)
		}
	}
	// The live sets must agree too (same multiset).
	liveCounts := map[canonEdge]int{}
	for _, ed := range e.LiveEdges() {
		liveCounts[canon(ed.U, ed.V, ed.W)]++
	}
	for _, ed := range o.edges {
		liveCounts[canon(ed.U, ed.V, ed.W)]--
	}
	for c, k := range liveCounts {
		if k != 0 {
			tb.Fatalf("live multiset differs from oracle at %+v (%+d)", c, k)
		}
	}
}

func mustOpen(tb testing.TB, cfg Config) (*Engine, *RecoveryReport) {
	tb.Helper()
	e, rep, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	return e, rep
}

func ins(u, v uint32, w float32) Op { return Op{U: u, V: v, W: w} }
func del(u, v uint32, w float32) Op { return Op{Delete: true, U: u, V: v, W: w} }

func TestEngineInsertDeleteReplace(t *testing.T) {
	e, _ := mustOpen(t, Config{Vertices: 5})
	o := &liveOracle{n: 5}
	apply := func(id uint64, ops ...Op) ApplyResult {
		t.Helper()
		res, err := e.Apply(Batch{ID: id, Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		o.apply(ops)
		checkAgainstOracle(t, e, o)
		return res
	}

	// Build a square with a diagonal: forest takes the three lightest.
	res := apply(1, ins(0, 1, 1), ins(1, 2, 2), ins(2, 3, 3), ins(3, 0, 4), ins(0, 2, 5))
	if res.ForestEdges != 3 || res.Trees != 2 || res.Weight != 6 {
		t.Fatalf("after batch 1: %+v", res)
	}
	// Inserting a lighter parallel path evicts the heaviest cycle edge.
	res = apply(2, ins(1, 3, 1))
	if res.Swaps != 1 {
		t.Fatalf("insert eviction not counted as swap: %+v", res)
	}
	// Delete a non-forest edge: forest untouched.
	res = apply(3, del(0, 2, 5))
	if res.Deleted != 1 || res.Swaps != 0 {
		t.Fatalf("non-forest delete: %+v", res)
	}
	// Delete a forest edge with a replacement available: cut and relink.
	res = apply(4, del(0, 1, 1))
	if res.Deleted != 1 || res.Swaps != 1 {
		t.Fatalf("forest delete with replacement: %+v", res)
	}
	// Delete a forest edge with no replacement: the tree splits.
	res = apply(5, del(1, 2, 2), del(3, 0, 4), del(2, 3, 3), del(1, 3, 1))
	if res.Trees != 5 {
		t.Fatalf("expected fully disconnected after batch 5: %+v", res)
	}
	// Deletes of absent edges are no-ops.
	res = apply(6, del(0, 1, 99))
	if res.Noops != 1 || res.Deleted != 0 {
		t.Fatalf("absent delete should no-op: %+v", res)
	}
}

func TestEngineDuplicateAndMonotonicBatchIDs(t *testing.T) {
	e, _ := mustOpen(t, Config{Vertices: 3})
	if _, err := e.Apply(Batch{ID: 5, Ops: []Op{ins(0, 1, 1)}}); err != nil {
		t.Fatal(err)
	}
	// Retrying batch 5 (or anything below) must not re-apply.
	for _, id := range []uint64{5, 4, 1} {
		res, err := e.Apply(Batch{ID: id, Ops: []Op{ins(0, 1, 1)}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Duplicate {
			t.Fatalf("batch %d at/below high-water not flagged duplicate", id)
		}
	}
	st := e.Stats()
	if st.LiveEdges != 1 || st.Duplicates != 3 {
		t.Fatalf("duplicates were applied: %+v", st)
	}
	// Gaps in IDs are fine; 0 is reserved.
	if _, err := e.Apply(Batch{ID: 100, Ops: []Op{ins(1, 2, 1)}}); err != nil {
		t.Fatal(err)
	}
	var be *BatchError
	if _, err := e.Apply(Batch{ID: 0}); !errors.As(err, &be) {
		t.Fatalf("batch ID 0 error = %v, want *BatchError", err)
	}
}

func TestEngineValidation(t *testing.T) {
	e, _ := mustOpen(t, Config{Vertices: 4})
	nan := float32(0)
	nan /= nan
	cases := []struct {
		name string
		op   Op
	}{
		{"out of range u", ins(4, 0, 1)},
		{"out of range v", ins(0, 9, 1)},
		{"self-loop insert", ins(2, 2, 1)},
		{"negative weight", ins(0, 1, -1)},
		{"nan weight", ins(0, 1, nan)},
		{"delete out of range", del(0, 12, 1)},
	}
	for _, tc := range cases {
		var be *BatchError
		if _, err := e.Apply(Batch{ID: 1, Ops: []Op{tc.op}}); !errors.As(err, &be) {
			t.Fatalf("%s: err = %v, want *BatchError", tc.name, err)
		}
	}
	// Rejected batches must not advance the high-water mark or the state.
	if st := e.Stats(); st.LastBatch != 0 || st.LiveEdges != 0 {
		t.Fatalf("rejected batches mutated state: %+v", st)
	}
}

// bridgedGrids builds the bridge-churn adversary: two k×k grids with
// random weights in [0, 100), vertices [0, k²) and [k², 2k²), joined by k
// bridges of distinct weights 100..100+k-1 from the first grid's right
// column to the second grid's left column. It returns the vertex count, the
// ops inserting everything, and the lightest bridge. That bridge is the
// forest's only crossing edge, so deleting it cuts the component into two
// k²-vertex sides, and its replacement is the next-lightest bridge.
func bridgedGrids(k int, seed int64) (n int, build []Op, lightest Op) {
	rng := rand.New(rand.NewSource(seed))
	at := func(grid, r, c int) uint32 { return uint32(grid*k*k + r*k + c) }
	for grid := 0; grid < 2; grid++ {
		for r := 0; r < k; r++ {
			for c := 0; c < k; c++ {
				if c+1 < k {
					build = append(build, ins(at(grid, r, c), at(grid, r, c+1), rng.Float32()*100))
				}
				if r+1 < k {
					build = append(build, ins(at(grid, r, c), at(grid, r+1, c), rng.Float32()*100))
				}
			}
		}
	}
	for i, r := range rng.Perm(k) {
		build = append(build, ins(at(0, r, k-1), at(1, r, 0), float32(100+i)))
	}
	return 2 * k * k, build, build[len(build)-k]
}

func TestEngineBridgeChurn(t *testing.T) {
	// Every batch deletes the lightest bridge between two 64² grids and
	// re-inserts it: the delete cuts 4096 vertices off and its replacement
	// search must scan a whole grid side; the re-insert evicts the
	// replacement again. The forest must stay exact, and the steady state
	// must not allocate.
	n, build, b := bridgedGrids(64, 5)
	e, _ := mustOpen(t, Config{Vertices: n})
	o := &liveOracle{n: n}
	id := uint64(1)
	if _, err := e.Apply(Batch{ID: id, Ops: build}); err != nil {
		t.Fatal(err)
	}
	o.apply(build)
	checkAgainstOracle(t, e, o)
	churn := []Op{del(b.U, b.V, b.W), ins(b.U, b.V, b.W)}
	for i := 0; i < 20; i++ {
		id++
		res, err := e.Apply(Batch{ID: id, Ops: churn})
		if err != nil {
			t.Fatal(err)
		}
		if res.Deleted != 1 || res.Swaps != 2 {
			t.Fatalf("batch %d: want one delete relinking the next bridge and one evicting insert: %+v", id, res)
		}
		o.apply(churn)
		checkAgainstOracle(t, e, o)
	}
	allocs := testing.AllocsPerRun(50, func() {
		id++
		if _, err := e.Apply(Batch{ID: id, Ops: churn}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("bridge churn allocates %v times per batch, want 0", allocs)
	}
}

func TestEngineSnapshotAndReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Vertices: 30, Dir: dir, Sync: SyncAlways, SnapshotEvery: 5}
	e, rep := mustOpen(t, cfg)
	if rep.SnapshotBatch != 0 || rep.ReplayedBatches != 0 {
		t.Fatalf("fresh dir produced a non-empty recovery: %+v", rep)
	}
	rng := rand.New(rand.NewSource(3))
	o := &liveOracle{n: 30}
	for id := uint64(1); id <= 23; id++ {
		var ops []Op
		for k := 0; k < 6; k++ {
			if len(o.edges) > 2 && rng.Intn(4) == 0 {
				pick := o.edges[rng.Intn(len(o.edges))]
				ops = append(ops, del(pick.U, pick.V, pick.W))
			} else {
				u, v := uint32(rng.Intn(30)), uint32(rng.Intn(30))
				if u == v {
					continue
				}
				ops = append(ops, ins(u, v, float32(rng.Intn(40))))
			}
		}
		if _, err := e.Apply(Batch{ID: id, Ops: ops}); err != nil {
			t.Fatal(err)
		}
		o.apply(ops)
	}
	if st := e.Stats(); st.Snapshots == 0 {
		t.Fatal("SnapshotEvery=5 over 23 batches took no snapshot")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: snapshot + WAL replay must restore the exact state.
	e2, rep2 := mustOpen(t, cfg)
	if rep2.Torn {
		t.Fatalf("clean shutdown recovered as torn: %+v", rep2)
	}
	if rep2.SnapshotBatch == 0 {
		t.Fatalf("recovery ignored the snapshot: %+v", rep2)
	}
	if rep2.LastBatch != 23 {
		t.Fatalf("recovered high-water %d, want 23", rep2.LastBatch)
	}
	checkAgainstOracle(t, e2, o)

	// The stream continues where it left off; a duplicate retry acks.
	res, err := e2.Apply(Batch{ID: 23, Ops: []Op{ins(0, 1, 1)}})
	if err != nil || !res.Duplicate {
		t.Fatalf("retry of recovered batch: %+v err=%v", res, err)
	}
	if _, err := e2.Apply(Batch{ID: 24, Ops: []Op{ins(0, 1, 1)}}); err != nil {
		t.Fatal(err)
	}
	o.apply([]Op{ins(0, 1, 1)})
	checkAgainstOracle(t, e2, o)
}

func TestEngineSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Vertices: 8, Dir: dir, Sync: policy, SyncInterval: time.Millisecond}
			e, _ := mustOpen(t, cfg)
			for id := uint64(1); id <= 5; id++ {
				if _, err := e.Apply(Batch{ID: id, Ops: []Op{ins(uint32(id-1), uint32(id), float32(id))}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e2, rep := mustOpen(t, cfg)
			if rep.LastBatch != 5 || rep.ReplayedBatches != 5 {
				t.Fatalf("%s: recovery %+v", policy, rep)
			}
			if st := e2.Stats(); st.ForestEdges != 5 {
				t.Fatalf("%s: forest %+v", policy, st)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		got, err := ParseSyncPolicy(policy.String())
		if err != nil || got != policy {
			t.Fatalf("round trip %v: got %v err %v", policy, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
}

func TestEngineClosed(t *testing.T) {
	e, _ := mustOpen(t, Config{Vertices: 3})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Batch{ID: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close = %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("double Close = %v", err)
	}
}
