package registry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
	"llpmst/internal/mst"
	"llpmst/internal/resilient"
)

// funcSolver adapts a function to the Solver interface.
type funcSolver func(ctx context.Context, g *graph.CSR) (resilient.Result, error)

func (f funcSolver) Solve(ctx context.Context, g *graph.CSR) (resilient.Result, error) {
	return f(ctx, g)
}

// algSolver solves with a real parallel algorithm and structurally checks
// the forest, mimicking what the resilient runner guarantees.
func algSolver(t *testing.T) Solver {
	return funcSolver(func(ctx context.Context, g *graph.CSR) (resilient.Result, error) {
		f, err := mst.RunCtx(ctx, mst.AlgLLPBoruvka, g, mst.Options{Workers: 2})
		if err != nil {
			return resilient.Result{}, err
		}
		if err := mst.CheckForest(g, f); err != nil {
			t.Errorf("solver produced unsound forest: %v", err)
			return resilient.Result{}, err
		}
		return resilient.Result{Forest: f, Algorithm: mst.AlgLLPBoruvka}, nil
	})
}

// countingSolver counts underlying calls and, when block is non-nil, parks
// every solve until the channel is closed.
type countingSolver struct {
	calls atomic.Int64
	block chan struct{}
}

func (s *countingSolver) Solve(ctx context.Context, g *graph.CSR) (resilient.Result, error) {
	s.calls.Add(1)
	if s.block != nil {
		select {
		case <-s.block:
		case <-ctx.Done():
			return resilient.Result{}, ctx.Err()
		}
	}
	f := mst.Kruskal(g)
	return resilient.Result{Forest: f, Algorithm: mst.AlgKruskal}, nil
}

func testGraph(seed int64) *graph.CSR {
	return gen.ErdosRenyi(1, 120, 480, gen.WeightUniform, seed)
}

func TestPutGetVersioningAndDelete(t *testing.T) {
	r := New(Config{Solver: algSolver(t)})
	g1, g2 := testGraph(1), testGraph(2)

	info, err := r.Put("roads", g1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Vertices != g1.NumVertices() || info.Edges != g1.NumEdges() {
		t.Fatalf("bad info: %+v", info)
	}
	if info.Bytes <= 0 {
		t.Fatalf("non-positive resident cost: %+v", info)
	}

	got, err := r.Get("roads")
	if err != nil || got != info {
		t.Fatalf("get: %+v, %v (want %+v)", got, err, info)
	}

	// Re-registering bumps the version monotonically.
	info2, err := r.Put("roads", g2)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Version != 2 {
		t.Fatalf("version after re-put = %d, want 2", info2.Version)
	}

	// Snapshot: latest by 0, exact match required otherwise.
	if _, inf, err := r.Snapshot("roads", 0); err != nil || inf.Version != 2 {
		t.Fatalf("snapshot latest: %+v, %v", inf, err)
	}
	if _, _, err := r.Snapshot("roads", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("snapshot of superseded version: err = %v, want ErrNotFound", err)
	}

	if list := r.List(); len(list) != 1 || list[0].ID != "roads" {
		t.Fatalf("list: %+v", list)
	}

	if err := r.Delete("roads"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("roads"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	if err := r.Delete("roads"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if st := r.Stats(); st.Graphs != 0 || st.ResidentBytes != 0 {
		t.Fatalf("stats after delete: %+v", st)
	}
}

func TestPutRejectsBadInput(t *testing.T) {
	r := New(Config{})
	if _, err := r.Put("", testGraph(1)); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := r.Put("a/b", testGraph(1)); err == nil {
		t.Fatal("slash id accepted")
	}
	if _, err := r.Put("ok", nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	if st := r.Stats(); st.Puts != 0 || st.Graphs != 0 {
		t.Fatalf("failed puts left state: %+v", st)
	}
}

func TestSolveCachesAndInvalidatesOnRePut(t *testing.T) {
	sol := &countingSolver{}
	r := New(Config{Solver: sol})
	g := testGraph(3)
	oracle := mst.Kruskal(g)
	if _, err := r.Put("g", g); err != nil {
		t.Fatal(err)
	}

	res, err := r.Solve(context.Background(), "t1", "g", 0, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached || res.Shared || res.Version != 1 {
		t.Fatalf("first solve flags wrong: %+v", res)
	}
	if res.Forest.Weight != oracle.Weight {
		t.Fatalf("weight %g, want %g", res.Forest.Weight, oracle.Weight)
	}

	res2, err := r.Solve(context.Background(), "t1", "g", 0, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached || res2.Forest.Weight != oracle.Weight {
		t.Fatalf("second solve not served from cache: %+v", res2)
	}
	if got := sol.calls.Load(); got != 1 {
		t.Fatalf("underlying solves = %d, want 1", got)
	}

	// A different options key is a distinct cache entry.
	res3, err := r.Solve(context.Background(), "t1", "g", 0, SolveOptions{Key: "other"})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Cached {
		t.Fatal("distinct options key hit the cache")
	}
	if got := sol.calls.Load(); got != 2 {
		t.Fatalf("underlying solves = %d, want 2", got)
	}

	// Re-registering the same id invalidates its entries...
	if _, err := r.Put("g", testGraph(4)); err != nil {
		t.Fatal(err)
	}
	res4, err := r.Solve(context.Background(), "t1", "g", 0, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res4.Cached || res4.Version != 2 {
		t.Fatalf("solve after re-put served stale: %+v", res4)
	}
	// ...and pinning the old version explicitly now misses.
	if _, err := r.Solve(context.Background(), "t1", "g", 1, SolveOptions{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("solve of superseded version: %v", err)
	}
}

func TestRePutInvalidatesOnlyThatID(t *testing.T) {
	sol := &countingSolver{}
	r := New(Config{Solver: sol})
	for _, id := range []string{"a", "b"} {
		if _, err := r.Put(id, testGraph(5)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Solve(context.Background(), "t", id, 0, SolveOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Put("a", testGraph(6)); err != nil {
		t.Fatal(err)
	}
	res, err := r.Solve(context.Background(), "t", "b", 0, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("re-put of id a invalidated id b's cache entry")
	}
}

func TestSolveErrorsPropagateAndAreNotCached(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	r := New(Config{Solver: funcSolver(func(context.Context, *graph.CSR) (resilient.Result, error) {
		calls.Add(1)
		return resilient.Result{}, boom
	})})
	if _, err := r.Put("g", testGraph(7)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Solve(context.Background(), "t", "g", 0, SolveOptions{}); !errors.Is(err, boom) {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("failed solves must not be cached: %d calls, want 2", got)
	}
	if st := r.Stats(); st.CachedResults != 0 {
		t.Fatalf("error result cached: %+v", st)
	}
}

func TestSolveUnknownGraphAndNilSolver(t *testing.T) {
	r := New(Config{Solver: algSolver(t)})
	if _, err := r.Solve(context.Background(), "t", "nope", 0, SolveOptions{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown graph: %v", err)
	}
	var nf *NotFoundError
	_, err := r.Solve(context.Background(), "t", "nope", 0, SolveOptions{})
	if !errors.As(err, &nf) || nf.ID != "nope" {
		t.Fatalf("not a typed NotFoundError: %v", err)
	}

	r2 := New(Config{})
	if _, err := r2.Put("g", testGraph(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Solve(context.Background(), "t", "g", 0, SolveOptions{}); err == nil {
		t.Fatal("nil solver did not error")
	}
}

// TestWaiterCancellationDoesNotAbortSharedSolve: a waiter that gives up
// gets its context error, but the detached flight finishes and lands in the
// cache for everyone after it.
func TestWaiterCancellationDoesNotAbortSharedSolve(t *testing.T) {
	sol := &countingSolver{block: make(chan struct{})}
	r := New(Config{Solver: sol})
	if _, err := r.Put("g", testGraph(9)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := r.Solve(ctx, "t", "g", 0, SolveOptions{})
		errc <- err
	}()
	waitFor(t, func() bool { return r.Stats().Misses == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v", err)
	}

	close(sol.block)
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := r.Solve(context.Background(), "t", "g", 0, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("flight abandoned by its waiter was not cached")
	}
	if got := sol.calls.Load(); got != 1 {
		t.Fatalf("underlying solves = %d, want 1", got)
	}
}

// TestLRUEvictionNeverEvictsPinnedGraph sets a budget that fits roughly two
// snapshots, pins the oldest with a parked in-flight solve, and registers
// more graphs: eviction must take the least-recently-used unpinned
// snapshots and leave the pinned one resident throughout.
func TestLRUEvictionNeverEvictsPinnedGraph(t *testing.T) {
	sol := &countingSolver{block: make(chan struct{})}
	g := testGraph(10)
	unit := snapshotBytes(g)
	r := New(Config{Solver: sol, MemoryBudgetBytes: 2*unit + unit/2})

	if _, err := r.Put("pinned", g); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := r.Solve(context.Background(), "t", "pinned", 0, SolveOptions{})
		errc <- err
	}()
	waitFor(t, func() bool { return r.Stats().Misses == 1 })

	// Each Put fits two snapshots; "pinned" is always the LRU victim
	// candidate but must be skipped while its solve is parked.
	for _, id := range []string{"b", "c", "d"} {
		if _, err := r.Put(id, testGraph(11)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Get("pinned"); err != nil {
			t.Fatalf("pinned graph evicted after put %q: %v", id, err)
		}
	}
	st := r.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under memory pressure: %+v", st)
	}
	if st.ResidentBytes > r.cfg.MemoryBudgetBytes+unit {
		t.Fatalf("resident bytes way over budget: %+v", st)
	}
	// "b" and "c" are the unpinned LRU tail; at least one must be gone.
	if _, errB := r.Get("b"); errB == nil {
		if _, errC := r.Get("c"); errC == nil {
			t.Fatal("no unpinned graph was evicted")
		}
	}

	close(sol.block)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// With the pin gone, the next Put may finally evict "pinned".
	if _, err := r.Put("e", testGraph(12)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("pinned"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unpinned LRU graph survived further pressure: %v", err)
	}
}

// TestEvictionDropsCachedResults: an evicted snapshot's cached solves go
// with it, so a later re-register starts cold instead of serving a forest
// for a graph that is no longer the one registered.
func TestEvictionDropsCachedResults(t *testing.T) {
	sol := &countingSolver{}
	g := testGraph(13)
	unit := snapshotBytes(g)
	r := New(Config{Solver: sol, MemoryBudgetBytes: unit + unit/2})
	if _, err := r.Put("a", g); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Solve(context.Background(), "t", "a", 0, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("b", testGraph(14)); err != nil { // evicts "a"
		t.Fatal(err)
	}
	if _, err := r.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a still resident: %v", err)
	}
	if st := r.Stats(); st.CachedResults != 0 {
		t.Fatalf("evicted graph left cached results: %+v", st)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestUploadedGraphConcurrentPrimSolves solves one freshly uploaded graph
// four times at once through a Prim-first portfolio: the Prim legs race on
// the upload's deferred adjacency build (run it under -race), LLP-Boruvka
// legs read only the edge list, and every answer must equal Kruskal's.
func TestUploadedGraphConcurrentPrimSolves(t *testing.T) {
	src := gen.RMAT(1, 10, 16, gen.WeightUniform, 11)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, src); err != nil {
		t.Fatal(err)
	}
	runner := resilient.New(resilient.Config{Primary: mst.AlgPrim, Backup: mst.AlgLLPBoruvka, Workers: 2})
	defer runner.Drain(context.Background())
	r := New(Config{Solver: runner, Workers: 2})
	if _, err := r.PutData("upload", &buf); err != nil {
		t.Fatal(err)
	}
	want := mst.Kruskal(src)
	const solves = 4
	errs := make(chan error, solves)
	var wg sync.WaitGroup
	for i := 0; i < solves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A distinct options key per solve defeats the singleflight, so
			// all four reach the runner.
			res, err := r.Solve(context.Background(), "t", "upload", 0, SolveOptions{Key: fmt.Sprint(i)})
			switch {
			case err != nil:
				errs <- err
			case !res.Forest.Equal(want):
				errs <- fmt.Errorf("solve %d (%s): %v, Kruskal %v", i, res.Algorithm, res.Forest, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
