package resilient

import (
	"context"
	"errors"
	"math/bits"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"llpmst/internal/fault"
	"llpmst/internal/gen"
	"llpmst/internal/graph"
	"llpmst/internal/mst"
	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// fakeClock is an injectable breaker clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerTransitions(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(3, time.Second, clk.now)

	if ok, probe := b.allow(); !ok || probe {
		t.Fatal("closed breaker must allow without probing")
	}
	if b.record(false) || b.record(false) {
		t.Fatal("breaker tripped before the threshold")
	}
	if !b.record(false) {
		t.Fatal("third consecutive failure must trip the breaker")
	}
	if st, trips := b.snapshot(); st != BreakerOpen || trips != 1 {
		t.Fatalf("state %v trips %d after trip; want open/1", st, trips)
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("open breaker admitted a request before cooldown")
	}

	clk.advance(time.Second)
	ok, probe := b.allow()
	if !ok || !probe {
		t.Fatalf("cooldown elapsed: want one half-open probe, got ok=%v probe=%v", ok, probe)
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("second request admitted while a probe is in flight")
	}
	if b.record(true) {
		t.Fatal("probe success reported as a trip")
	}
	if st, _ := b.snapshot(); st != BreakerClosed {
		t.Fatalf("probe success left state %v; want closed", st)
	}

	// A success resets the consecutive-failure count.
	b.record(false)
	b.record(false)
	b.record(true)
	if b.record(false) || b.record(false) {
		t.Fatal("failure count not reset by success")
	}

	// Probe failure re-opens for a fresh cooldown.
	if !b.record(false) {
		t.Fatal("want trip")
	}
	clk.advance(time.Second)
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatal("want probe after second cooldown")
	}
	if !b.record(false) {
		t.Fatal("probe failure must re-open (a trip)")
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("probe failure must restart the cooldown")
	}

	// abortProbe frees the slot with no outcome.
	clk.advance(time.Second)
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatal("want probe")
	}
	b.abortProbe()
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatal("aborted probe must free the half-open slot")
	}
}

func TestLatencyTrackerLearnsAndClamps(t *testing.T) {
	lt := newLatencyTracker()
	alg := mst.AlgLLPBoruvka
	if _, ok := lt.tail(alg, 10); ok {
		t.Fatal("tail with no samples")
	}
	if d := lt.hedgeDelay(alg, 10, time.Millisecond, time.Second); d != time.Millisecond {
		t.Fatalf("cold hedge delay %v; want the floor", d)
	}
	for i := 0; i < 20; i++ {
		lt.observe(alg, 10, 10*time.Millisecond)
	}
	tail, ok := lt.tail(alg, 10)
	if !ok {
		t.Fatal("no tail after 20 samples")
	}
	if tail < 9*time.Millisecond || tail > 30*time.Millisecond {
		t.Fatalf("tail %v implausible for a constant 10ms stream", tail)
	}
	if d := lt.hedgeDelay(alg, 10, time.Millisecond, 5*time.Millisecond); d != 5*time.Millisecond {
		t.Fatalf("hedge delay %v; want clamped to the 5ms ceiling", d)
	}
	// Other buckets and algorithms stay independent.
	if _, ok := lt.tail(alg, 11); ok {
		t.Fatal("bucket 11 contaminated")
	}
	if _, ok := lt.tail(mst.AlgLLPPrimAsync, 10); ok {
		t.Fatal("other algorithm contaminated")
	}
}

// TestLatencyLowerBoundOnlyRaises: a cancelled primary's elapsed time
// seeds an empty cell and raises a mean it exceeds, but never lowers one.
func TestLatencyLowerBoundOnlyRaises(t *testing.T) {
	lt := newLatencyTracker()
	alg := mst.AlgLLPPrimAsync
	lt.observeLowerBound(alg, 10, 7*time.Millisecond)
	if m, ok := lt.mean(alg, 10); !ok || m != 7*time.Millisecond {
		t.Fatalf("empty cell seeded to %v (ok=%v), want 7ms", m, ok)
	}
	lt.observe(alg, 11, 10*time.Millisecond)
	lt.observeLowerBound(alg, 11, 5*time.Millisecond)
	if m, _ := lt.mean(alg, 11); m != 10*time.Millisecond {
		t.Fatalf("a bound below the mean moved it to %v", m)
	}
	lt.observeLowerBound(alg, 11, 30*time.Millisecond)
	if m, _ := lt.mean(alg, 11); m <= 10*time.Millisecond {
		t.Fatalf("a bound above the mean left it at %v", m)
	}
}

// shape is a sized graph stand-in for tracker-level tests.
type shape struct{ n, m int }

func (s shape) NumVertices() int { return s.n }
func (s shape) NumEdges() int    { return s.m }

// TestLatencyCellPerShape: two shapes with one ⌊log₂(n+m)⌋ — solve-cold's
// road grid and ER graph — learn in separate cells, so the slower shape's
// hedge delay comes from its own samples, not the faster one's.
func TestLatencyCellPerShape(t *testing.T) {
	road, er := shape{1 << 16, 78643}, shape{1 << 14, 1 << 17}
	if a, b := bits.Len(uint(road.n+road.m)), bits.Len(uint(er.n+er.m)); a != b {
		t.Fatalf("fixture: log2(n+m) differs (%d, %d)", a, b)
	}
	rb, eb := sizeBucket(road), sizeBucket(er)
	if rb == eb {
		t.Fatalf("road and er share bucket %d", rb)
	}
	lt := newLatencyTracker()
	alg := mst.AlgLLPBoruvka
	floor, ceil := time.Millisecond, time.Second
	for i := 0; i < 20; i++ {
		lt.observe(alg, eb, 5*time.Millisecond)
	}
	if d := lt.hedgeDelay(alg, rb, floor, ceil); d != floor {
		t.Fatalf("road's cold hedge delay %v, want the floor: it read er's samples", d)
	}
	for i := 0; i < 20; i++ {
		lt.observe(alg, rb, 12*time.Millisecond)
	}
	if d := lt.hedgeDelay(alg, rb, floor, ceil); d < 11*time.Millisecond || d > 13*time.Millisecond {
		t.Fatalf("road's hedge delay %v, want its own ~12ms", d)
	}
	if d := lt.hedgeDelay(alg, eb, floor, ceil); d < 4*time.Millisecond || d > 6*time.Millisecond {
		t.Fatalf("er's hedge delay %v, want its own ~5ms", d)
	}
}

func TestAdmissionConcurrencyShed(t *testing.T) {
	a := newAdmission(2, 0)
	r1, err := a.admit(100, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.admit(100, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.admit(100, 100, 2)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third admit: %v; want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "concurrency" {
		t.Fatalf("want *OverloadError{concurrency}, got %#v", err)
	}
	r1()
	r1() // double release is a no-op, not a corrupted gate
	r3, err := a.admit(100, 100, 2)
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	r2()
	r3()
}

func TestAdmissionMemoryShed(t *testing.T) {
	n, m := 10_000, 50_000
	need := 2 * mst.EstimateScratchBytes(n, m, 4)
	a := newAdmission(0, need+need/2) // room for one request, not two
	r1, err := a.admit(n, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.admit(n, m, 4)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want memory shed, got %v", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "memory" || oe.BudgetBytes == 0 || oe.EstimatedBytes == 0 {
		t.Fatalf("bad overload detail: %#v", oe)
	}
	r1()
	r2, err := a.admit(n, m, 4)
	if err != nil {
		t.Fatalf("budget not returned on release: %v", err)
	}
	r2()
}

// oracle computes the Kruskal reference forest.
func oracle(t *testing.T, g *graph.CSR) *mst.Forest {
	t.Helper()
	f := mst.Kruskal(g)
	if err := mst.CheckForest(g, f); err != nil {
		t.Fatalf("kruskal oracle invalid: %v", err)
	}
	return f
}

// TestPickPortfolio pins the auto portfolio: every graph, sparse, dense or
// very dense (m >= 16n), gets LLP-Boruvka first and the sequential LLP-Prim
// as its hedge. A primary-only config gets LLP-Boruvka as its complement,
// and a full explicit config overrides all of it.
func TestPickPortfolio(t *testing.T) {
	r := New(Config{})
	graphs := map[string]*graph.CSR{
		"sparse":     gen.ErdosRenyi(1, 400, 900, gen.WeightUniform, 3),
		"dense":      gen.ErdosRenyi(1, 200, 1600, gen.WeightUniform, 4),
		"very-dense": gen.ErdosRenyi(1, 100, 3200, gen.WeightUniform, 5),
	}
	for name, g := range graphs {
		primary, backup := r.pick(sizeBucket(g))
		if primary != mst.AlgLLPBoruvka || backup != mst.AlgLLPPrim {
			t.Errorf("%s: pick = (%s, %s), want (llp-boruvka, llp-prim)", name, primary, backup)
		}
	}
	dense := sizeBucket(graphs["very-dense"])
	primaryOnly := New(Config{Primary: mst.AlgPrim})
	if primary, backup := primaryOnly.pick(dense); primary != mst.AlgPrim || backup != mst.AlgLLPBoruvka {
		t.Errorf("primary-only pick = (%s, %s), want (prim, llp-boruvka)", primary, backup)
	}
	cfg := New(Config{Primary: mst.AlgKruskal, Backup: mst.AlgPrim})
	if primary, backup := cfg.pick(dense); primary != mst.AlgKruskal || backup != mst.AlgPrim {
		t.Errorf("configured pick = (%s, %s), want (kruskal, prim)", primary, backup)
	}
}

func TestSolveMatchesKruskalAcrossShapes(t *testing.T) {
	r := New(Config{Workers: 2, VerifyRate: 1})
	graphs := []*graph.CSR{
		gen.ErdosRenyi(1, 400, 900, gen.WeightUniform, 3),  // sparse
		gen.ErdosRenyi(1, 120, 2400, gen.WeightUniform, 4), // dense
		gen.RoadNetwork(1, 14, 14, 0.2, 5),                 // grid-ish
		graph.MustFromEdges(1, 5, nil),                     // edgeless
		gen.ErdosRenyi(1, 300, 80, gen.WeightInteger, 6),   // disconnected
	}
	for i, g := range graphs {
		want := oracle(t, g)
		res, err := r.Solve(context.Background(), g)
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if !res.Forest.Equal(want) {
			t.Fatalf("graph %d: forest differs from oracle", i)
		}
		if !res.Verified {
			t.Fatalf("graph %d: VerifyRate=1 but result not verified", i)
		}
		if res.FallbackUsed {
			t.Fatalf("graph %d: healthy portfolio used the fallback", i)
		}
	}
	if st := r.Stats(); st.Solves != int64(len(graphs)) || st.Shed != 0 {
		t.Fatalf("stats %+v", st)
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSolveShedsAtConcurrencyLimit(t *testing.T) {
	r := New(Config{MaxConcurrent: 1, Workers: 1})
	release, err := r.adm.admit(10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.ErdosRenyi(1, 50, 100, gen.WeightUniform, 7)
	_, err = r.Solve(context.Background(), g)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if st := r.Stats(); st.Shed != 1 {
		t.Fatalf("shed not counted: %+v", st)
	}
	release()
	if _, err := r.Solve(context.Background(), g); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestSolveShedsOverMemoryBudget(t *testing.T) {
	g := gen.ErdosRenyi(1, 2000, 8000, gen.WeightUniform, 8)
	need := 2 * mst.EstimateScratchBytes(g.NumVertices(), g.NumEdges(), 1)
	r := New(Config{Workers: 1, MemoryBudgetBytes: need / 2})
	_, err := r.Solve(context.Background(), g)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "memory" {
		t.Fatalf("want memory overload, got %v", err)
	}
	small := gen.ErdosRenyi(1, 20, 40, gen.WeightUniform, 9)
	if _, err := r.Solve(context.Background(), small); err != nil {
		t.Fatalf("small request must still fit: %v", err)
	}
}

func TestSolvePreCancelledContext(t *testing.T) {
	r := New(Config{Workers: 2})
	g := gen.ErdosRenyi(1, 200, 600, gen.WeightUniform, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.Solve(ctx, g)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
}

func TestSolveVerifySamplingStride(t *testing.T) {
	r := New(Config{VerifyRate: 0.25})
	hits := 0
	for i := 0; i < 100; i++ {
		if r.shouldVerify() {
			hits++
		}
	}
	if hits != 25 {
		t.Fatalf("VerifyRate=0.25 verified %d/100 solves; want exactly 25 (deterministic stride)", hits)
	}
	if New(Config{}).shouldVerify() {
		t.Fatal("VerifyRate=0 must never verify")
	}
}

// TestChaosAcceptance is the PR's acceptance scenario: a fault plan that
// panics the primary algorithm 100% of the time and delays the backup.
// RunResilient must still return a CheckForest-clean, weight-correct forest
// within the request deadline, and the breaker trips must be visible
// through the flight recorder's Prometheus export.
func TestChaosAcceptance(t *testing.T) {
	flight := obs.NewFlightRecorder(0, 0)
	primary, backup := mst.AlgLLPBoruvka, mst.AlgLLPPrimAsync
	cfg := Config{
		Primary:          primary,
		Backup:           backup,
		Workers:          2,
		HedgeDelay:       time.Millisecond,
		BreakerTripAfter: 2,
		BreakerCooldown:  time.Minute,
		Observer:         flight,
		VerifyRate:       1,
		Chaos: &Chaos{
			Unit: time.Millisecond,
			Plan: fault.Plan{
				Seed: 42,
				Arcs: map[int64]fault.Probs{
					ChaosArc(primary): {Drop: 1},               // every primary leg panics
					ChaosArc(backup):  {Delay: 1, MaxDelay: 3}, // backup stalls 1-3ms first
				},
			},
		},
	}
	r := New(cfg)
	g := gen.ErdosRenyi(1, 800, 3200, gen.WeightUniform, 11)
	want := oracle(t, g)

	for i := 0; i < 6; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		res, err := r.Solve(ctx, g)
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("solve %d blew the deadline: %v", i, elapsed)
		}
		if !res.Forest.Equal(want) || res.Forest.Weight != want.Weight {
			t.Fatalf("solve %d: wrong forest", i)
		}
		if err := mst.CheckForest(g, res.Forest); err != nil {
			t.Fatalf("solve %d: unsound forest: %v", i, err)
		}
		if res.Algorithm != backup && res.Algorithm != mst.AlgKruskal {
			t.Fatalf("solve %d: returned by %s; the panicking primary cannot win", i, res.Algorithm)
		}
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	st := r.Stats()
	if st.BreakerTrips == 0 {
		t.Fatalf("primary panicked every run but never tripped: %+v", st)
	}
	var open bool
	for _, bs := range r.Breakers() {
		if bs.Algorithm == primary && bs.State != BreakerClosed && bs.Trips > 0 {
			open = true
		}
	}
	if !open {
		t.Fatalf("primary breaker not open: %+v", r.Breakers())
	}

	var sb strings.Builder
	if err := flight.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	metrics := sb.String()
	if !strings.Contains(metrics, `counter="breaker.open"`) {
		t.Fatalf("/metrics payload does not report breaker.open trips:\n%s", metrics)
	}
	if !strings.Contains(metrics, `llpmst_events_total`) {
		t.Fatalf("no event counters in /metrics payload:\n%s", metrics)
	}
}

// TestHedgeSlowPrimaryBackupWins forces a slow (but healthy) primary and
// checks the hedge path end to end: the backup launches after the hedge
// delay, wins, the loser observes its cancellation, and stats agree.
func TestHedgeSlowPrimaryBackupWins(t *testing.T) {
	primary, backup := mst.AlgLLPBoruvka, mst.AlgParallelBoruvka
	r := New(Config{
		Primary:    primary,
		Backup:     backup,
		Workers:    2,
		HedgeDelay: time.Millisecond,
		Chaos: &Chaos{
			Unit: 20 * time.Millisecond,
			Plan: fault.Plan{
				Seed: 7,
				Arcs: map[int64]fault.Probs{
					ChaosArc(primary): {Delay: 1, MaxDelay: 1}, // primary stalls 20ms
				},
			},
		},
	})
	g := gen.ErdosRenyi(1, 500, 2000, gen.WeightUniform, 12)
	want := oracle(t, g)
	res, err := r.Solve(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Forest.Equal(want) {
		t.Fatal("wrong forest")
	}
	if !res.Hedged || !res.HedgeWon || res.Algorithm != backup {
		t.Fatalf("want a hedge win by %s, got %+v", backup, res)
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.HedgesLaunched != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedge stats wrong: %+v", st)
	}
	if st.LosersCancelled+st.LosersCompleted != 1 {
		t.Fatalf("the losing primary was neither cancelled nor completed: %+v", st)
	}
}

// TestHedgeLoserSamplesSwapPrimary: an auto-picked primary that always
// loses its race is cancelled every time, so only its elapsed time at the
// cancel, a lower bound, can tell pick to swap it out. With those bounds
// recorded, the first solve is won by the hedge and every later one by the
// swapped-in primary. The bound is about the hedge floor, so the floor is
// set far above the fast algorithm's latency on this graph, even under the
// race detector on a loaded host.
func TestHedgeLoserSamplesSwapPrimary(t *testing.T) {
	g := gen.ErdosRenyi(1, 400, 900, gen.WeightUniform, 3) // a cold pick leads with llp-boruvka
	stalled, fast := mst.AlgLLPBoruvka, mst.AlgLLPPrim
	r := New(Config{
		Workers:    2,
		HedgeFloor: 100 * time.Millisecond,
		Chaos: &Chaos{
			Unit: time.Second,
			Plan: fault.Plan{
				Seed: 11,
				Arcs: map[int64]fault.Probs{
					ChaosArc(stalled): {Delay: 1, MaxDelay: 1}, // every leg stalls 1s
				},
			},
		},
	})
	if primary, _ := r.pick(sizeBucket(g)); primary != stalled {
		t.Fatalf("cold pick leads with %s, want %s", primary, stalled)
	}
	want := oracle(t, g)
	for i := 0; i < 12; i++ {
		res, err := r.Solve(context.Background(), g)
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if !res.Forest.Equal(want) || res.Algorithm != fast {
			t.Fatalf("solve %d: answered by %s, want %s with the oracle forest", i, res.Algorithm, fast)
		}
		if i > 0 && res.HedgeWon {
			t.Fatalf("solve %d: still won by the hedge; the stalled primary was never swapped out", i)
		}
		// The loser records its bound when it sees the cancel; wait for it
		// so the next pick is deterministic.
		if err := r.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.HedgeWins != 1 || st.LosersCompleted != 0 {
		t.Fatalf("stats %+v: want exactly one hedge win and no loser finishing", st)
	}
}

// TestCancelledBackupNeverSwapsPrimary: a backup cancelled because the
// primary won has run only for the primary's lead over the hedge delay, so
// its elapsed time says nothing about its own latency and is not recorded.
// From a cold tracker, a primary that beats a slower backup keeps
// answering: the backup never gets a sample, so pick never swaps it in.
// The primary's stall is twice the hedge floor, so the cold solve launches
// the backup and cancels it about one floor later.
func TestCancelledBackupNeverSwapsPrimary(t *testing.T) {
	g := gen.ErdosRenyi(1, 400, 900, gen.WeightUniform, 3) // a cold pick leads with llp-boruvka
	primary, backup := mst.AlgLLPBoruvka, mst.AlgLLPPrim
	r := New(Config{
		Workers:    2,
		HedgeFloor: 20 * time.Millisecond,
		Chaos: &Chaos{
			Unit: 40 * time.Millisecond,
			Plan: fault.Plan{
				Seed: 5,
				Arcs: map[int64]fault.Probs{
					ChaosArc(primary): {Delay: 1, MaxDelay: 1},  // every primary leg stalls 40ms
					ChaosArc(backup):  {Delay: 1, MaxDelay: 25}, // every backup leg 40ms to 1s
				},
			},
		},
	})
	bucket := sizeBucket(g)
	if p, _ := r.pick(bucket); p != primary {
		t.Fatalf("cold pick leads with %s, want %s", p, primary)
	}
	want := oracle(t, g)
	for i := 0; i < 8; i++ {
		res, err := r.Solve(context.Background(), g)
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if !res.Forest.Equal(want) || res.Algorithm != primary || res.HedgeWon {
			t.Fatalf("solve %d: answered by %s (hedge won: %v), want %s as primary with the oracle forest", i, res.Algorithm, res.HedgeWon, primary)
		}
		if i == 0 && !res.Hedged {
			t.Fatal("the cold solve launched no backup")
		}
		if err := r.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if m, ok := r.lat.mean(backup, bucket); ok {
			t.Fatalf("solve %d: the cancelled backup recorded a %v latency", i, m)
		}
	}
}

// TestSolveDeadlineExhaustedTypedError pins the failure contract when
// nothing can answer in time: a typed error wrapping DeadlineExceeded, no
// partial forest.
func TestSolveDeadlineExhaustedTypedError(t *testing.T) {
	r := New(Config{
		Workers: 2,
		Chaos: &Chaos{
			Unit: time.Second,
			Plan: fault.Plan{Seed: 1, Default: fault.Probs{Delay: 1, MaxDelay: 5}}, // stall every leg for seconds
		},
	})
	g := gen.ErdosRenyi(1, 300, 900, gen.WeightUniform, 13)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := r.Solve(ctx, g)
	if err == nil {
		t.Fatalf("want deadline error, got result %+v", res)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap DeadlineExceeded", err)
	}
	if res.Forest != nil {
		t.Fatal("failed solve leaked a partial forest")
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFallbackWhenPortfolioPanics opens every portfolio breaker by
// panicking both algorithms; the solve must still be answered — by Kruskal.
func TestFallbackWhenPortfolioPanics(t *testing.T) {
	r := New(Config{
		Primary:          mst.AlgLLPBoruvka,
		Backup:           mst.AlgLLPPrimAsync,
		Workers:          2,
		BreakerTripAfter: 2,
		BreakerCooldown:  time.Minute,
		Chaos: &Chaos{
			Unit: time.Millisecond,
			Plan: fault.Plan{Seed: 3, Default: fault.Probs{Drop: 1}}, // every leg panics
		},
	})
	g := gen.ErdosRenyi(1, 400, 1200, gen.WeightUniform, 14)
	want := oracle(t, g)
	for i := 0; i < 4; i++ {
		res, err := r.Solve(context.Background(), g)
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if !res.Forest.Equal(want) {
			t.Fatalf("solve %d: wrong forest", i)
		}
		if !res.FallbackUsed || res.Algorithm != mst.AlgKruskal {
			t.Fatalf("solve %d: want kruskal fallback, got %+v", i, res)
		}
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.FallbacksUsed != 4 || st.BreakerTrips == 0 {
		t.Fatalf("stats %+v", st)
	}
	// A panic error must surface as par.PanicError through the leg plumbing.
	results := make(chan legOutcome, 1)
	var decided atomic.Bool
	r.wg.Add(1)
	go r.runLeg(context.Background(), obs.Nop{}, obs.TraceRef{}, g, mst.AlgLLPBoruvka, sizeBucket(g), 1, false, false, &decided, results)
	out := <-results
	var pe *par.PanicError
	if out.err == nil || !errors.As(out.err, &pe) {
		t.Fatalf("chaos panic not surfaced as *par.PanicError: %v", out.err)
	}
}
