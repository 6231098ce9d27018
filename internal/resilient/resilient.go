package resilient

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"llpmst/internal/graph"
	"llpmst/internal/mst"
	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// Config tunes a Runner. The zero value is serviceable: adaptive hedging
// with a 1ms floor, auto-picked portfolio, breakers tripping after 3
// consecutive failures with a 5s cooldown, a concurrency gate of
// 2×GOMAXPROCS, no memory budget, and no sampled minimality verification.
type Config struct {
	// Primary and Backup name the portfolio. An empty Primary is
	// llp-boruvka; an empty Backup is llp-prim when the primary is
	// llp-boruvka, and llp-boruvka for any other primary. When either is
	// left empty, the runner swaps the two once its learned per-bucket
	// latencies say the backup is faster on graphs of that shape.
	Primary mst.Algorithm
	Backup  mst.Algorithm

	// Workers is the per-solve goroutine count. An explicit count is used
	// as given. <= 0 means auto, resolved once per solve from the graph's
	// n+m by par.WorkersFor; admission prices and every leg runs that
	// resolved count.
	Workers int

	// DefaultDeadline bounds solves whose context has no deadline of its
	// own. 0 = unbounded.
	DefaultDeadline time.Duration

	// HedgeDelay, when > 0, is a fixed delay before the backup launches.
	// When 0 the delay is adaptive: the primary's learned tail latency for
	// the graph's shape bucket, clamped to [HedgeFloor, HedgeCeil].
	HedgeDelay time.Duration
	// HedgeFloor and HedgeCeil clamp the adaptive delay (defaults 1ms and
	// 1s). The floor also serves as the cold-start delay before any
	// latencies are learned.
	HedgeFloor time.Duration
	HedgeCeil  time.Duration
	// DisableHedge turns hedging off: the backup runs only after the
	// primary fails.
	DisableHedge bool

	// VerifyRate is the fraction of winning forests additionally checked
	// for minimality with mst.VerifyMinimum (structural CheckForest runs on
	// every winner regardless). 0 disables sampling; 1 verifies every solve.
	// A verification failure trips the winner's breaker and re-solves on a
	// different algorithm.
	VerifyRate float64

	// MaxConcurrent bounds admitted solves. 0 = 2×GOMAXPROCS; < 0 =
	// unbounded.
	MaxConcurrent int
	// MemoryBudgetBytes bounds the summed scratch estimates
	// (mst.EstimateScratchBytes, doubled for the hedge leg) of admitted
	// solves. 0 = unlimited.
	MemoryBudgetBytes int64

	// BreakerTripAfter is the consecutive-failure count that opens an
	// algorithm's breaker (default 3); BreakerCooldown is how long it stays
	// open before a half-open probe (default 5s).
	BreakerTripAfter int
	BreakerCooldown  time.Duration

	// Observer receives the runner's counters (hedge.launched, hedge.won,
	// breaker.open, admit.shed, verify.failed, fallback.used) and is passed
	// through to the algorithms' own instrumentation. When nil, a Collector
	// carried by the solve's context (obs.NewContext) is used.
	Observer obs.Collector

	// Chaos, when non-nil, injects seeded panics and delays into portfolio
	// legs (never into the Kruskal fallback). For soak tests.
	Chaos *Chaos
}

// Result reports how a solve was answered, alongside the forest.
type Result struct {
	// Forest is the verified minimum spanning forest.
	Forest *mst.Forest
	// Algorithm produced the returned forest (mst.AlgKruskal when the
	// fallback answered).
	Algorithm mst.Algorithm
	// Hedged reports that a backup leg was launched while the primary ran.
	Hedged bool
	// HedgeWon reports that the hedge leg's forest was the one returned.
	HedgeWon bool
	// FallbackUsed reports that the sequential Kruskal safety net answered.
	FallbackUsed bool
	// Verified reports that the returned forest passed a sampled
	// mst.VerifyMinimum in addition to the structural check.
	Verified bool
	// Attempts counts algorithm runs consumed (portfolio legs + fallback).
	Attempts int
	// Elapsed is the solve's wall time inside the runner.
	Elapsed time.Duration
}

// Stats is a snapshot of a Runner's lifetime counters.
type Stats struct {
	Solves          int64 // admitted solve calls
	Shed            int64 // requests rejected by admission control
	LegsLaunched    int64 // portfolio legs started
	HedgesLaunched  int64 // legs started while another leg was in flight
	HedgeWins       int64 // hedge legs whose forest was returned
	FallbacksUsed   int64 // solves answered by sequential Kruskal
	VerifyFailures  int64 // CheckForest or sampled VerifyMinimum rejections
	BreakerTrips    int64 // breaker open transitions
	LosersCancelled int64 // losing legs that observed hedge cancellation
	LosersCompleted int64 // losing legs that finished before noticing it
}

// BreakerStatus is one algorithm's breaker position for reports.
type BreakerStatus struct {
	Algorithm mst.Algorithm
	State     BreakerState
	Trips     int64
}

// Runner is the resilient execution engine: admission control, circuit
// breakers, hedged portfolio execution, a verification gate, and a
// sequential fallback, in that order. Safe for concurrent use; one Runner
// serves a whole process.
type Runner struct {
	cfg   Config
	adm   *admission
	lat   *latencyTracker
	chaos *chaosInjector

	mu       sync.Mutex
	breakers map[mst.Algorithm]*breaker

	// wg tracks every leg goroutine (including hedge losers still draining
	// after their solve was answered); Drain waits on it for graceful
	// shutdown.
	wg sync.WaitGroup

	verifyCtr atomic.Uint64

	solves, shed, legs, hedges, hedgeWins atomic.Int64
	fallbacks, verifyFails, trips         atomic.Int64
	losersCancelled, losersCompleted      atomic.Int64
}

// New builds a Runner from cfg.
func New(cfg Config) *Runner {
	if cfg.HedgeFloor <= 0 {
		cfg.HedgeFloor = time.Millisecond
	}
	if cfg.HedgeCeil <= 0 {
		cfg.HedgeCeil = time.Second
	}
	maxc := cfg.MaxConcurrent
	if maxc == 0 {
		maxc = 2 * par.Workers(0)
	}
	if maxc < 0 {
		maxc = 0 // unbounded gate
	}
	return &Runner{
		cfg:      cfg,
		adm:      newAdmission(maxc, cfg.MemoryBudgetBytes),
		lat:      newLatencyTracker(),
		chaos:    newChaosInjector(cfg.Chaos),
		breakers: make(map[mst.Algorithm]*breaker),
	}
}

// Stats returns a snapshot of the runner's lifetime counters.
func (r *Runner) Stats() Stats {
	return Stats{
		Solves:          r.solves.Load(),
		Shed:            r.shed.Load(),
		LegsLaunched:    r.legs.Load(),
		HedgesLaunched:  r.hedges.Load(),
		HedgeWins:       r.hedgeWins.Load(),
		FallbacksUsed:   r.fallbacks.Load(),
		VerifyFailures:  r.verifyFails.Load(),
		BreakerTrips:    r.trips.Load(),
		LosersCancelled: r.losersCancelled.Load(),
		LosersCompleted: r.losersCompleted.Load(),
	}
}

// Breakers returns every algorithm breaker's current status, sorted by
// algorithm name for stable reports.
func (r *Runner) Breakers() []BreakerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]BreakerStatus, 0, len(r.breakers))
	for _, alg := range mst.Algorithms() {
		if b, ok := r.breakers[alg]; ok {
			st, trips := b.snapshot()
			out = append(out, BreakerStatus{Algorithm: alg, State: st, Trips: trips})
		}
	}
	return out
}

// Drain blocks until every leg goroutine has exited (hedge losers observe
// their cancellation promptly, so this is bounded by the slowest in-flight
// solve), or until ctx expires.
func (r *Runner) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *Runner) breakerFor(alg mst.Algorithm) *breaker {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.breakers[alg]
	if b == nil {
		b = newBreaker(r.cfg.BreakerTripAfter, r.cfg.BreakerCooldown, nil)
		r.breakers[alg] = b
	}
	return b
}

// collector resolves the run's Collector: the configured one combined with
// any Collector carried by ctx (obs.NewContext). Tee collapses nil sides,
// so with no per-request collector this is exactly the configured Observer,
// and with no Observer it is exactly the context's. The serving layer uses
// the context side to attach a per-request FlightRecorder whose round
// summary lands in the request's trace.
func (r *Runner) collector(ctx context.Context) obs.Collector {
	return obs.Tee(r.cfg.Observer, obs.FromContext(ctx))
}

// legNopEnd is countsOnly's shared span closer, so Span never allocates.
var legNopEnd = func() {}

// countsOnly forwards counters and gauges to col but drops spans, round
// marks, and worker attribution. Count and Gauge are safe for concurrent
// use on every Collector (the FlightRecorder claims ring slots with an
// atomic add), but a cursor's Span open/close tracking is per-goroutine
// state — two hedge legs running the same algorithm phases concurrently
// against one recorder would corrupt it. The runner therefore gives
// concurrent legs this counters-only view; exact scheduler/algorithm
// counters still land in /metrics.
type countsOnly struct{ col obs.Collector }

func (c countsOnly) Span(string) func()             { return legNopEnd }
func (c countsOnly) Count(ctr obs.Counter, d int64) { c.col.Count(ctr, d) }
func (c countsOnly) Gauge(g obs.Gauge, v int64)     { c.col.Gauge(g, v) }

// Round forwards round marks: MarkRound is an atomic ring claim on the
// FlightRecorder (unlike cursor spans it has no per-goroutine state), so
// concurrent legs marking rounds is safe, and the per-request recorder a
// trace attaches needs the marks to segment its round summary.
func (c countsOnly) Round(r int64) { obs.MarkRound(c.col, r) }

// pick chooses the portfolio order for a graph in bucket: the configured
// algorithms when set, else LLP-Boruvka (Algorithm 6) hedged by the
// sequential LLP-Prim (Algorithm 5), which polls its context as it explores
// and so stops soon after it loses (see Config.Primary). When either side
// was left to auto, the learned per-bucket means swap the two if the backup
// is faster here.
func (r *Runner) pick(bucket int) (primary, backup mst.Algorithm) {
	primary, backup = r.cfg.Primary, r.cfg.Backup
	if primary == "" {
		primary = mst.AlgLLPBoruvka
	}
	if backup == "" {
		backup = mst.AlgLLPBoruvka
		if primary == mst.AlgLLPBoruvka {
			backup = mst.AlgLLPPrim
		}
	}
	if backup == primary {
		backup = ""
		return
	}
	if r.cfg.Primary == "" || r.cfg.Backup == "" {
		pm, okP := r.lat.mean(primary, bucket)
		bm, okB := r.lat.mean(backup, bucket)
		if okP && okB && bm < pm {
			primary, backup = backup, primary
		}
	}
	return
}

// shouldVerify implements the sampled minimality gate with a deterministic
// stride (every round(1/rate)-th admitted solve).
func (r *Runner) shouldVerify() bool {
	rate := r.cfg.VerifyRate
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	interval := uint64(math.Round(1 / rate))
	if interval < 1 {
		interval = 1
	}
	return r.verifyCtr.Add(1)%interval == 0
}

// legOutcome is one portfolio leg's result.
type legOutcome struct {
	alg     mst.Algorithm
	forest  *mst.Forest // non-nil and CheckForest-clean iff err == nil
	err     error
	hedge   bool // launched while another leg was in flight
	elapsed time.Duration
	span    obs.Span // the leg's trace span, already ended; race() marks the winner
}

// Solve answers one MSF request through the full resilience pipeline. It
// returns a structurally verified forest or a typed error — never a silent
// partial result. Rejections match errors.Is(err, ErrOverloaded); deadline
// exhaustion matches context.DeadlineExceeded.
//
// When ctx carries a trace ref (obs.ContextWithTrace) the pipeline is
// recorded as a "resilient.solve" span with one "resilient.leg" child per
// portfolio leg, hedge legs and the winner marked.
func (r *Runner) Solve(ctx context.Context, g *graph.CSR) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := obs.TraceRefFromContext(ctx).Start("resilient.solve")
	res, err := r.solve(ctx, sp, g)
	if sp.Valid() {
		sp.SetInt("attempts", int64(res.Attempts))
		if res.Algorithm != "" {
			sp.SetAttr("winner", string(res.Algorithm))
		}
		if res.Hedged {
			sp.SetInt("hedged", 1)
		}
		if res.HedgeWon {
			sp.SetInt("hedge_won", 1)
		}
		if res.FallbackUsed {
			sp.SetInt("fallback", 1)
		}
		switch {
		case err == nil:
			sp.SetAttr("outcome", "ok")
		case errors.Is(err, ErrOverloaded):
			// Load shedding is the admission gate working as designed, not a
			// fault: record it without forcing the trace into the error tail.
			sp.SetAttr("outcome", "shed")
		default:
			sp.SetErrorString(err.Error())
		}
	}
	sp.End()
	return res, err
}

func (r *Runner) solve(ctx context.Context, sp obs.Span, g *graph.CSR) (Result, error) {
	if g == nil {
		return Result{}, errors.New("resilient: nil graph")
	}
	col := obs.Or(r.collector(ctx))
	start := time.Now()
	if r.cfg.DefaultDeadline > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, r.cfg.DefaultDeadline)
			defer cancel()
		}
	}

	workers := par.WorkersFor(r.cfg.Workers, g.NumVertices()+g.NumEdges())
	release, err := r.adm.admit(g.NumVertices(), g.NumEdges(), workers)
	if err != nil {
		r.shed.Add(1)
		col.Count(obs.CtrAdmitShed, 1)
		return Result{}, err
	}
	defer release()
	r.solves.Add(1)

	bucket := sizeBucket(g)
	primary, backup := r.pick(bucket)
	if sp.Valid() {
		sp.SetAttr("primary", string(primary))
		if backup != "" {
			sp.SetAttr("backup", string(backup))
		}
	}
	legRef := sp.Ref()

	res := Result{}
	banned := make(map[mst.Algorithm]bool, 2)
	var legErrs []error
	// The verify loop: a winner that fails the sampled minimality check is
	// discarded, its algorithm banned for this request, and the remaining
	// portfolio re-raced. Two passes bound the work (portfolio size is 2).
	for pass := 0; pass < 2 && ctx.Err() == nil; pass++ {
		algs := make([]mst.Algorithm, 0, 2)
		for _, a := range []mst.Algorithm{primary, backup} {
			if a != "" && !banned[a] {
				algs = append(algs, a)
			}
		}
		if len(algs) == 0 {
			break
		}
		win, errs := r.race(ctx, col, legRef, g, bucket, workers, algs, &res)
		legErrs = append(legErrs, errs...)
		if win == nil {
			break
		}
		if r.shouldVerify() {
			if verr := mst.VerifyMinimum(g, win.forest); verr != nil {
				r.verifyFails.Add(1)
				col.Count(obs.CtrVerifyFailed, 1)
				if r.breakerFor(win.alg).record(false) {
					r.trips.Add(1)
					col.Count(obs.CtrBreakerOpen, 1)
				}
				banned[win.alg] = true
				legErrs = append(legErrs, fmt.Errorf("resilient: %s forest failed minimality verification: %w", win.alg, verr))
				continue
			}
			res.Verified = true
		}
		res.Forest = win.forest
		res.Algorithm = win.alg
		if win.hedge {
			res.HedgeWon = true
			r.hedgeWins.Add(1)
			col.Count(obs.CtrHedgeWon, 1)
		}
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// The portfolio is exhausted (every leg panicked, timed out, or failed
	// verification). Degrade to sequential Kruskal inside what remains of
	// the budget — it has no breaker and no chaos: it is the safety net.
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("resilient: deadline exhausted before a sound forest was produced: %w", errors.Join(append(legErrs, err)...))
	}
	res.FallbackUsed = true
	res.Attempts++
	r.fallbacks.Add(1)
	col.Count(obs.CtrFallbackUsed, 1)
	fsp := legRef.Start("resilient.fallback")
	fsp.SetAttr("alg", string(mst.AlgKruskal))
	f, err := mst.Run(mst.AlgKruskal, g, mst.Options{Ctx: ctx, Metrics: nil, Observer: countsOnly{col}})
	fsp.SetError(err)
	fsp.End()
	if err != nil {
		return Result{}, fmt.Errorf("resilient: fallback kruskal failed: %w", errors.Join(append(legErrs, err)...))
	}
	if cerr := mst.CheckForest(g, f); cerr != nil {
		r.verifyFails.Add(1)
		col.Count(obs.CtrVerifyFailed, 1)
		return Result{}, fmt.Errorf("resilient: fallback kruskal produced an unsound forest: %w", errors.Join(append(legErrs, cerr)...))
	}
	res.Forest = f
	res.Algorithm = mst.AlgKruskal
	res.Elapsed = time.Since(start)
	return res, nil
}

// race runs one hedged pass over algs: the first allowed algorithm starts
// immediately, the next starts after the hedge delay (or at once when the
// first fails), and the first CheckForest-clean forest wins; the loser's
// context is cancelled. Every leg runs on workers goroutines. Returns the
// winner (nil if every leg failed) and the losing legs' errors.
func (r *Runner) race(ctx context.Context, col obs.Collector, ref obs.TraceRef, g *graph.CSR, bucket, workers int, algs []mst.Algorithm, res *Result) (*legOutcome, []error) {
	legCtx, cancelLegs := context.WithCancel(ctx)
	defer cancelLegs()
	results := make(chan legOutcome, len(algs))
	// decided tells late-finishing legs that their cancellation was a hedge
	// loss (stats), not a caller abort.
	var decided atomic.Bool

	pending, next := 0, 0
	launch := func() bool {
		for next < len(algs) {
			alg := algs[next]
			next++
			b := r.breakerFor(alg)
			ok, probe := b.allow()
			if !ok {
				continue
			}
			hedge := pending > 0
			if hedge {
				r.hedges.Add(1)
				col.Count(obs.CtrHedgeLaunched, 1)
				res.Hedged = true
			}
			pending++
			res.Attempts++
			r.legs.Add(1)
			r.wg.Add(1)
			go r.runLeg(legCtx, col, ref, g, alg, bucket, workers, hedge, probe, &decided, results)
			return true
		}
		return false
	}

	if !launch() {
		return nil, nil // every breaker open; caller falls back
	}
	var hedgeC <-chan time.Time
	if next < len(algs) && !r.cfg.DisableHedge {
		delay := r.cfg.HedgeDelay
		if delay <= 0 {
			delay = r.lat.hedgeDelay(algs[0], bucket, r.cfg.HedgeFloor, r.cfg.HedgeCeil)
		}
		// Never schedule the hedge after the deadline has already consumed
		// the request: fire by mid-budget at the latest.
		if dl, has := ctx.Deadline(); has {
			if rem := time.Until(dl); rem > 0 && delay > rem/2 {
				delay = rem / 2
			}
		}
		t := time.NewTimer(delay)
		defer t.Stop()
		hedgeC = t.C
	}

	var errs []error
	for pending > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			launch()
		case out := <-results:
			pending--
			if out.err == nil {
				decided.Store(true)
				cancelLegs()
				// Only the receiving side knows which sound leg arrived
				// first, so the winner mark lands here, after the leg span
				// ended. That is safe: the attribute write is ordered before
				// the trace can seal (this select precedes Solve's return,
				// which precedes the root span's Finish).
				out.span.SetAttr("leg", "winner")
				return &out, errs
			}
			errs = append(errs, out.err)
			if pending == 0 {
				hedgeC = nil
				launch() // sequential retry on the remaining algorithms
			}
		case <-ctx.Done():
			// Request deadline while waiting: the legs see the same ctx and
			// will drain on their own (r.wg tracks them).
			decided.Store(false)
			return nil, append(errs, ctx.Err())
		}
	}
	return nil, errs
}

// runLeg executes one portfolio leg: chaos strike, the algorithm itself
// (panics recovered into typed errors), the structural verification gate,
// then breaker/latency/stat accounting. It always sends exactly one
// legOutcome and never blocks (the results channel has one slot per leg).
func (r *Runner) runLeg(ctx context.Context, col obs.Collector, ref obs.TraceRef, g *graph.CSR, alg mst.Algorithm, bucket, workers int, hedge, probe bool, decided *atomic.Bool, results chan<- legOutcome) {
	defer r.wg.Done()
	// The leg span is started from a goroutine the request does not join
	// (hedge losers outlive the response); the trace store's generation
	// check makes this safe even if the slot has been recycled by then.
	sp := ref.Start("resilient.leg")
	sp.SetAttr("alg", string(alg))
	sp.SetInt("workers", int64(workers))
	if hedge {
		sp.SetInt("hedge", 1)
	}
	if probe {
		sp.SetAttr("breaker", "half-open")
	}
	start := time.Now()
	var f *mst.Forest
	var err error
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				// A chaos strike or a bug outside the par runtime's own
				// recovery: convert like any worker panic.
				err = fmt.Errorf("resilient: %s: %w", alg, par.AsPanicError(rec, -1))
				f = nil
			}
		}()
		r.chaos.strike(ctx, alg)
		f, err = mst.RunCtx(ctx, alg, g, mst.Options{Workers: workers, Observer: countsOnly{col}})
	}()

	checkFailed := false
	if err == nil {
		if f == nil {
			err = fmt.Errorf("resilient: %s returned no forest", alg)
		} else if cerr := mst.CheckForest(g, f); cerr != nil {
			checkFailed = true
			err = fmt.Errorf("resilient: %s produced an unsound forest: %w", alg, cerr)
		}
	}
	// The latency a leg teaches the tracker runs through the gate: the
	// hedge timer races the primary's checked forest, not its raw result,
	// so a delay learned without CheckForest fires on ordinary solves.
	elapsed := time.Since(start)

	b := r.breakerFor(alg)
	switch {
	case err == nil:
		r.lat.observe(alg, bucket, elapsed)
		b.record(true)
		sp.SetAttr("outcome", "ok")
		if decided.Load() {
			r.losersCompleted.Add(1) // finished sound, but after the winner
			sp.SetAttr("leg", "loser")
		}
	case errors.Is(err, context.Canceled):
		// Cancelled, not failed: either a hedge loss (the winner's cancel)
		// or the caller giving up. Neither is the algorithm's fault.
		if probe {
			b.abortProbe()
		}
		sp.SetAttr("outcome", "cancelled")
		if decided.Load() {
			// A primary's elapsed time spans a whole race the backup won,
			// so it bounds the primary's latency usefully. A backup's is
			// only the primary's lead minus the hedge delay: recording it
			// would rank an unmeasured, maybe slow, backup ahead.
			if !hedge {
				r.lat.observeLowerBound(alg, bucket, elapsed)
			}
			r.losersCancelled.Add(1)
			sp.SetAttr("leg", "loser")
		}
	default:
		// Panic, unsound forest, or a deadline blow-through: breaker
		// pressure.
		if checkFailed {
			r.verifyFails.Add(1)
			col.Count(obs.CtrVerifyFailed, 1)
		}
		if b.record(false) {
			r.trips.Add(1)
			col.Count(obs.CtrBreakerOpen, 1)
		}
		sp.SetAttr("outcome", "failed")
		sp.SetErrorString(err.Error())
	}
	sp.End()
	results <- legOutcome{alg: alg, forest: f, err: err, hedge: hedge, elapsed: elapsed, span: sp}
}
