// Command mstserve serves minimum-spanning-forest solves over HTTP through
// the resilient execution engine: every request passes admission control,
// per-algorithm circuit breakers, hedged portfolio execution, a sampled
// verification gate, and — when the portfolio is exhausted — the sequential
// Kruskal fallback.
//
// Endpoints:
//
//	POST   /solve             one-shot: graph in the body (binary .llpg or
//	                          DIMACS .gr, sniffed by magic); ?deadline=2s
//	                          overrides the default budget, ?edges=1
//	                          includes the forest's edge ids in the reply
//	PUT    /graphs/{id}       register (or re-register, bumping the
//	                          version) a named graph: body as for /solve,
//	                          or ?path=rel.llpg to load server-side from
//	                          -graph-dir
//	GET    /graphs            list registered graphs
//	GET    /graphs/{id}       one graph's metadata
//	DELETE /graphs/{id}       unregister
//	POST   /graphs/{id}/solve solve a registered graph through the
//	                          version-keyed, singleflight-deduplicated
//	                          result cache; ?version= pins a version,
//	                          ?edges=1 as above. Tenant identity comes
//	                          from the X-API-Key header; per-tenant token
//	                          buckets (-quota-rate/-quota-burst) reject
//	                          over-quota tenants with 429 + Retry-After.
//	PUT    /streams/{id}      create a durable edge stream: body
//	                          {"vertices":N}; 201 on create, 200 if it
//	                          already exists with the same shape, 409 on
//	                          a shape mismatch
//	POST   /streams/{id}/update apply one batch of edge inserts/deletes:
//	                          body {"batch":ID,"ops":[{"delete":bool,
//	                          "u":..,"v":..,"w":..},...]}; batch IDs are
//	                          client-assigned and strictly increasing, so
//	                          retrying an acknowledged ID is idempotent
//	GET    /streams/{id}/forest the maintained minimum spanning forest;
//	                          ?min_batch=K is the read-your-writes fence:
//	                          a replica still behind batch K answers 503 +
//	                          Retry-After instead of a stale forest
//	GET    /streams           list streams
//	GET    /streams/{id}      one stream's stats, last recovery report,
//	                          and (under -replica-role) replication state
//	DELETE /streams/{id}      close the stream and delete its WAL/snapshot
//	POST   /streams/{id}/promote flip a follower stream to primary duty:
//	                          it stops accepting replicated records (the
//	                          deposed primary gets 410 and gives up) and
//	                          starts accepting client writes
//	POST   /replica/{id}/connect  replication handshake (follower role):
//	                          body {"vertices":N}; creates the stream when
//	                          missing and returns the high-water mark
//	POST   /replica/{id}/ship?prev=P  ingest one framed WAL record; 409
//	                          when the follower is not at P (the primary
//	                          re-runs catch-up), fsync'd before the ack
//	POST   /replica/{id}/snapshot ingest a full snapshot (catch-up past
//	                          the primary's WAL retention, or divergence)
//	GET    /replica/{id}/hw   heartbeat: refresh the lease clock and
//	                          report the follower's high-water mark
//	GET    /traces            trace index: recent, slowest, and errored
//	                          kept traces plus tail-sampling stats
//	GET    /traces/{id}       one kept trace's span tree as JSON;
//	                          ?format=chrome emits Chrome-trace JSON for
//	                          Perfetto / chrome://tracing
//	GET    /healthz           200 while serving; 503 while replaying
//	                          stream WALs at startup ("recovering") and
//	                          once draining ("draining")
//	GET    /metrics           Prometheus text: flight-recorder counters
//	                          and spans, breaker states, runner lifetime
//	                          stats, registry/cache/quota counters,
//	                          per-route RED series, trace-store sampling
//	                          stats, and per-stream gauges
//
// Every route is method-scoped: a wrong-method hit on a known route gets
// 405 with an Allow header, not 404.
//
// Every request runs under a trace: an inbound W3C traceparent header is
// honored (and echoed on the response), registry/resilient/stream layers
// contribute child spans, and the tail-sampling trace store (-trace-*)
// always keeps errored and slow-tail traces. One structured log line per
// request (-log-format, -log-level) carries the trace ID.
//
// SIGTERM/SIGINT starts a graceful drain: /healthz flips to 503 so load
// balancers stop routing, in-flight solves (and their hedge losers) finish,
// and the process exits 0.
//
// The -replica-* flags replicate every stream's WAL across servers. A
// primary (-replica-role=primary -replica-followers=http://b:8081,...)
// ships each batch's WAL record to its followers and, under
// -replica-quorum=quorum|all, acknowledges the write only once enough
// copies are fsync'd — otherwise the batch is rolled back locally and the
// client gets 503 + Retry-After (the same batch ID is safe to retry). A
// follower (-replica-role=follower) ingests records, rejects client
// writes with 503 until POST /streams/{id}/promote, and reports itself
// orphaned once the primary has been silent longer than -replica-lease.
//
// The -chaos-* flags inject seeded panics and delays into portfolio legs
// (never the fallback) for resilience drills:
//
//	mstserve -addr :8080 -chaos-panic 0.2 -chaos-seed 7
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"llpmst/internal/fault"
	"llpmst/internal/graph"
	"llpmst/internal/mst"
	"llpmst/internal/obs"
	"llpmst/internal/registry"
	"llpmst/internal/replica"
	"llpmst/internal/resilient"
	"llpmst/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mstserve:", err)
		os.Exit(1)
	}
}

// serverConfig is everything run parses from flags, separated so tests can
// build servers directly.
type serverConfig struct {
	workers     int
	deadline    time.Duration
	maxDeadline time.Duration
	maxBody     int64
	graphDir    string
	registryMem int64
	quotaRate   float64
	quotaBurst  float64
	traceCap    int
	traceSpans  int
	traceSample float64
	logFormat   string
	logLevel    slog.Level
	// logW receives the structured request log; nil means os.Stderr. Tests
	// inject a buffer here.
	logW      io.Writer
	resilient resilient.Config
	streams   streamConfig
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mstserve", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		workers       = fs.Int("workers", 0, "per-solve and upload-decode worker count (0 = auto: one worker per 524288 input elements, up to GOMAXPROCS)")
		deadline      = fs.Duration("deadline", 30*time.Second, "default per-request solve budget")
		maxDeadline   = fs.Duration("max-deadline", 5*time.Minute, "cap on client-requested ?deadline")
		maxBody       = fs.Int64("max-body", 256<<20, "largest accepted request body in bytes")
		graphDir      = fs.String("graph-dir", "", "directory server-side graph loads (?path=) may read from (empty = disabled)")
		registryMem   = fs.Int64("registry-mem", 0, "LRU bound on resident registered-graph bytes (0 = unbounded)")
		quotaRate     = fs.Float64("quota-rate", 0, "per-tenant solve quota in requests/second (0 = unlimited)")
		quotaBurst    = fs.Float64("quota-burst", 0, "per-tenant quota burst capacity (0 = max(1, rate))")
		primary       = fs.String("primary", "", "primary algorithm (empty = llp-boruvka)")
		backup        = fs.String("backup", "", "backup algorithm (empty = llp-prim, or llp-boruvka for any other primary)")
		hedgeDelay    = fs.Duration("hedge-delay", 0, "fixed hedge delay (0 = adaptive from learned tails)")
		noHedge       = fs.Bool("no-hedge", false, "disable hedging; backup runs only after the primary fails")
		verifyRate    = fs.Float64("verify-rate", 0.05, "fraction of wins additionally checked with VerifyMinimum")
		maxConc       = fs.Int("max-concurrent", 0, "admitted solves in flight (0 = 2x GOMAXPROCS, <0 = unbounded)")
		memBudget     = fs.Int64("mem-budget", 0, "scratch-memory admission budget in bytes (0 = unlimited)")
		tripAfter     = fs.Int("breaker-trip", 3, "consecutive failures that open an algorithm's breaker")
		cooldown      = fs.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker waits before probing")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget after SIGTERM")
		chaosSeed     = fs.Int64("chaos-seed", 1, "seed for the chaos fault plan")
		chaosPanic    = fs.Float64("chaos-panic", 0, "probability a portfolio leg panics")
		chaosDelay    = fs.Float64("chaos-delay", 0, "probability a portfolio leg stalls")
		chaosMaxDelay = fs.Int("chaos-max-delay", 4, "stall length bound, in chaos units")
		chaosUnit     = fs.Duration("chaos-unit", 2*time.Millisecond, "duration of one chaos stall unit")
		streamDir     = fs.String("stream-dir", "", "directory for stream WALs and snapshots (empty = streams are in-memory only)")
		streamSync    = fs.String("stream-sync", "always", "stream WAL fsync policy: always, interval, or off")
		streamSyncInt = fs.Duration("stream-sync-interval", 100*time.Millisecond, "flush period under -stream-sync=interval")
		snapshotEvery = fs.Int("snapshot-every", 1024, "batches between stream snapshot compactions (0 = default)")
		recoverHold   = fs.Duration("stream-recover-hold", 0, "artificially stretch startup recovery (drill knob for observing the 503 window)")
		traceCap      = fs.Int("trace-capacity", 512, "tail-sampled traces kept in memory")
		traceSpans    = fs.Int("trace-spans", 128, "span slots per trace (excess spans are counted, not stored)")
		traceSample   = fs.Float64("trace-sample", 0.1, "probability a healthy fast trace is kept anyway (errors and the slow tail are always kept)")
		logFormat     = fs.String("log-format", "text", "request log encoding: text or json")
		logLevel      = fs.String("log-level", "info", "request log threshold: debug, info, warn, or error")
		replicaRole   = fs.String("replica-role", "", "stream replication role: primary, follower, or empty (standalone)")
		replicaFoll   = fs.String("replica-followers", "", "comma-separated follower base URLs, e.g. http://host:8081 (primary role only)")
		replicaQuorum = fs.String("replica-quorum", "none", "copies required before a write acks: none, quorum, or all")
		replicaAckTO  = fs.Duration("replica-ack-timeout", 5*time.Second, "per-follower bound on one ship or heartbeat call")
		replicaHB     = fs.Duration("replica-heartbeat", time.Second, "liveness probe cadence for current followers")
		replicaLease  = fs.Duration("replica-lease", 3*time.Second, "primary silence a follower tolerates before reporting itself orphaned")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	if *logFormat != "text" && *logFormat != "json" {
		return fmt.Errorf("unknown log format %q (want text or json)", *logFormat)
	}
	syncPolicy, err := stream.ParseSyncPolicy(*streamSync)
	if err != nil {
		return err
	}
	replicaLevel, err := replica.ParseLevel(*replicaQuorum)
	if err != nil {
		return err
	}
	rcfg := replicaConfig{
		role:       *replicaRole,
		level:      replicaLevel,
		ackTimeout: *replicaAckTO,
		heartbeat:  *replicaHB,
		lease:      *replicaLease,
	}
	for _, base := range strings.Split(*replicaFoll, ",") {
		if base = strings.TrimSpace(base); base != "" {
			rcfg.followers = append(rcfg.followers, strings.TrimRight(base, "/"))
		}
	}
	if err := rcfg.validate(); err != nil {
		return err
	}
	for _, name := range []string{*primary, *backup} {
		if name != "" && !knownAlgorithm(mst.Algorithm(name)) {
			return fmt.Errorf("unknown algorithm %q (known: %v)", name, mst.Algorithms())
		}
	}

	cfg := serverConfig{
		workers:     *workers,
		deadline:    *deadline,
		maxDeadline: *maxDeadline,
		maxBody:     *maxBody,
		graphDir:    *graphDir,
		registryMem: *registryMem,
		quotaRate:   *quotaRate,
		quotaBurst:  *quotaBurst,
		traceCap:    *traceCap,
		traceSpans:  *traceSpans,
		traceSample: *traceSample,
		logFormat:   *logFormat,
		logLevel:    level,
		streams: streamConfig{
			dir:           *streamDir,
			sync:          syncPolicy,
			syncInterval:  *streamSyncInt,
			snapshotEvery: *snapshotEvery,
			recoverHold:   *recoverHold,
			replica:       rcfg,
		},
		resilient: resilient.Config{
			Primary:           mst.Algorithm(*primary),
			Backup:            mst.Algorithm(*backup),
			Workers:           *workers,
			HedgeDelay:        *hedgeDelay,
			DisableHedge:      *noHedge,
			VerifyRate:        *verifyRate,
			MaxConcurrent:     *maxConc,
			MemoryBudgetBytes: *memBudget,
			BreakerTripAfter:  *tripAfter,
			BreakerCooldown:   *cooldown,
		},
	}
	if *chaosPanic > 0 || *chaosDelay > 0 {
		cfg.resilient.Chaos = &resilient.Chaos{
			Plan: fault.Plan{
				Seed:    *chaosSeed,
				Default: fault.Probs{Drop: *chaosPanic, Delay: *chaosDelay, MaxDelay: *chaosMaxDelay},
			},
			Unit: *chaosUnit,
		}
		fmt.Fprintf(stdout, "chaos enabled: panic=%.2f delay=%.2f seed=%d\n", *chaosPanic, *chaosDelay, *chaosSeed)
	}

	srv := newServer(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.handler()}
	fmt.Fprintf(stdout, "mstserve listening on %s\n", ln.Addr())
	// Stream recovery runs alongside serving: /healthz and stream routes
	// answer 503 until every persisted stream has been replayed.
	go srv.streams.recoverAll(func(format string, args ...any) {
		fmt.Fprintf(stdout, format+"\n", args...)
	})

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(stdout, "signal %v: draining\n", sig)
	}

	srv.draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := srv.reg.Drain(ctx); err != nil {
		return fmt.Errorf("registry drain: %w", err)
	}
	if err := srv.runner.Drain(ctx); err != nil {
		return fmt.Errorf("leg drain: %w", err)
	}
	// Streams close last: HTTP traffic has stopped, so each engine can take
	// its final fsync and release its WAL cleanly.
	if err := srv.streams.closeAll(); err != nil {
		return fmt.Errorf("stream close: %w", err)
	}
	st := srv.runner.Stats()
	fmt.Fprintf(stdout, "drained: %d solves, %d shed, %d hedges (%d won), %d fallbacks\n",
		st.Solves, st.Shed, st.HedgesLaunched, st.HedgeWins, st.FallbacksUsed)
	return nil
}

func knownAlgorithm(alg mst.Algorithm) bool {
	for _, a := range mst.Algorithms() {
		if a == alg {
			return true
		}
	}
	return false
}

// server bundles the resilient runner, the graph registry, the flight
// recorder, the tracing spine (trace store, RED metrics, request log), and
// drain state.
type server struct {
	cfg      serverConfig
	runner   *resilient.Runner
	reg      *registry.Registry
	flight   *obs.FlightRecorder
	traces   *obs.TraceStore
	httpm    *obs.HTTPMetrics
	log      *slog.Logger
	streams  *streamManager
	draining atomic.Bool
}

func newServer(cfg serverConfig) *server {
	flight := obs.NewFlightRecorder(1, 1<<16)
	rcfg := cfg.resilient
	rcfg.Observer = flight
	if cfg.deadline > 0 {
		rcfg.DefaultDeadline = cfg.deadline
	}
	runner := resilient.New(rcfg)
	reg := registry.New(registry.Config{
		Solver:            runner,
		Workers:           cfg.workers,
		MemoryBudgetBytes: cfg.registryMem,
		SolveTimeout:      cfg.deadline,
		DefaultQuota:      registry.Quota{Rate: cfg.quotaRate, Burst: cfg.quotaBurst},
		Observer:          flight,
	})
	scfg := cfg.streams
	scfg.observer = flight
	traces := obs.NewTraceStore(obs.TraceStoreConfig{
		Capacity:   cfg.traceCap,
		SpanCap:    cfg.traceSpans,
		SampleRate: cfg.traceSample,
	})
	logW := cfg.logW
	if logW == nil {
		logW = os.Stderr
	}
	logger, err := obs.NewLogger(logW, cfg.logFormat, cfg.logLevel)
	if err != nil {
		// run() validates the flag; a direct construction with a bad format
		// falls back to text rather than failing the server.
		logger, _ = obs.NewLogger(logW, "", cfg.logLevel)
	}
	streams := newStreamManager(scfg)
	// Replication state changes (follower connected / current / demoted)
	// go through the structured request log.
	streams.logf = func(format string, args ...any) {
		logger.Info(fmt.Sprintf(format, args...))
	}
	return &server{
		cfg:     cfg,
		runner:  runner,
		reg:     reg,
		flight:  flight,
		traces:  traces,
		httpm:   obs.NewHTTPMetrics(),
		log:     logger,
		streams: streams,
	}
}

// handler builds the method-scoped route table. Method scoping is what
// turns a wrong-method hit on a known route into 405 + Allow instead of
// the 404 (or, worse, a 200 from a GET-assuming handler) it used to get.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	// Every route goes through the tracing middleware keyed by its pattern,
	// so the route label in metrics and logs is the registration string, not
	// a high-cardinality concrete path.
	for _, rt := range []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"POST /solve", s.handleSolve},
		{"PUT /graphs/{id}", s.handlePutGraph},
		{"GET /graphs/{id}", s.handleGetGraph},
		{"DELETE /graphs/{id}", s.handleDeleteGraph},
		{"GET /graphs", s.handleListGraphs},
		{"POST /graphs/{id}/solve", s.handleRegistrySolve},
		{"PUT /streams/{id}", s.handlePutStream},
		{"GET /streams/{id}", s.handleGetStream},
		{"DELETE /streams/{id}", s.handleDeleteStream},
		{"GET /streams", s.handleListStreams},
		{"POST /streams/{id}/update", s.handleStreamUpdate},
		{"GET /streams/{id}/forest", s.handleStreamForest},
		{"POST /streams/{id}/promote", s.handleStreamPromote},
		{"POST /replica/{id}/connect", s.handleReplicaConnect},
		{"POST /replica/{id}/ship", s.handleReplicaShip},
		{"POST /replica/{id}/snapshot", s.handleReplicaSnapshot},
		{"GET /replica/{id}/hw", s.handleReplicaHW},
		{"GET /traces", s.handleTraces},
		{"GET /traces/{id}", s.handleTraceByID},
		{"GET /healthz", s.handleHealthz},
		{"GET /metrics", s.handleMetrics},
	} {
		mux.HandleFunc(rt.pattern, s.traced(rt.pattern, rt.h))
	}
	return mux
}

// solveReply is the /solve response body. The server leaves EdgeIDs unset
// and writeSolveReply appends the ids; clients decode them into it.
type solveReply struct {
	Vertices    int      `json:"vertices"`
	Edges       int      `json:"edges"`
	ForestEdges int      `json:"forest_edges"`
	Weight      float64  `json:"weight"`
	Algorithm   string   `json:"algorithm"`
	Hedged      bool     `json:"hedged"`
	HedgeWon    bool     `json:"hedge_won"`
	Fallback    bool     `json:"fallback_used"`
	Verified    bool     `json:"verified"`
	Attempts    int      `json:"attempts"`
	ElapsedMS   float64  `json:"elapsed_ms"`
	EdgeIDs     []uint32 `json:"edge_ids,omitempty"`
}

func (s *server) handleSolve(w http.ResponseWriter, req *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	g, err := s.readGraph(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	budget, err := s.solveBudget(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx := req.Context()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}

	res, err := s.runner.Solve(ctx, g)
	if err != nil {
		writeSolveError(w, err)
		return
	}

	writeSolveReply(w, newSolveReply(g.NumVertices(), g.NumEdges(), res), replyIDs(req, res))
}

// replyIDs returns the forest's edge ids when the request asks for them
// with ?edges=1, and nil otherwise.
func replyIDs(req *http.Request, res resilient.Result) []uint32 {
	if req.URL.Query().Get("edges") == "1" {
		return res.Forest.EdgeIDs
	}
	return nil
}

// replyBufs pools the encode buffers of solve replies with edge ids: a
// reply carries up to one id per vertex, several bytes each.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeSolveReply writes reply, a solveReply or registrySolveReply with no
// EdgeIDs, as one JSON object and a newline, with ids as its "edge_ids"
// field when there are any. The scalar fields go through encoding/json;
// the ids are appended with strconv into a pooled buffer, which on 65,535
// ids takes a little over half the time that encoding them through
// reflection does.
func writeSolveReply(w http.ResponseWriter, reply any, ids []uint32) {
	w.Header().Set("Content-Type", "application/json")
	if len(ids) == 0 {
		_ = json.NewEncoder(w).Encode(reply)
		return
	}
	head, err := json.Marshal(reply)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	bp := replyBufs.Get().(*[]byte)
	defer replyBufs.Put(bp)
	b := append((*bp)[:0], head[:len(head)-1]...) // drop the closing brace
	b = append(b, `,"edge_ids":[`...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(id), 10)
	}
	b = append(b, "]}\n"...)
	*bp = b
	_, _ = w.Write(b)
}

func newSolveReply(n, m int, res resilient.Result) solveReply {
	return solveReply{
		Vertices:    n,
		Edges:       m,
		ForestEdges: len(res.Forest.EdgeIDs),
		Weight:      res.Forest.Weight,
		Algorithm:   string(res.Algorithm),
		Hedged:      res.Hedged,
		HedgeWon:    res.HedgeWon,
		Fallback:    res.FallbackUsed,
		Verified:    res.Verified,
		Attempts:    res.Attempts,
		ElapsedMS:   float64(res.Elapsed) / float64(time.Millisecond),
	}
}

// solveBudget resolves the request's solve deadline: the server default,
// overridden by ?deadline=, capped at -max-deadline.
func (s *server) solveBudget(req *http.Request) (time.Duration, error) {
	budget := s.cfg.deadline
	if raw := req.URL.Query().Get("deadline"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			return 0, fmt.Errorf("bad deadline %q", raw)
		}
		budget = d
	}
	if s.cfg.maxDeadline > 0 && budget > s.cfg.maxDeadline {
		budget = s.cfg.maxDeadline
	}
	return budget, nil
}

// rejectDraining sheds the request with 503 + Retry-After once the server
// is draining; it reports whether it wrote a response.
func (s *server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	http.Error(w, "draining", http.StatusServiceUnavailable)
	return true
}

// writeSolveError maps a solve pipeline error onto an HTTP status: quota
// 429 (with Retry-After), overload 503 (with Retry-After), missing graph
// 404, deadline 504, client-gone 499, anything else 500.
func writeSolveError(w http.ResponseWriter, err error) {
	var qe *registry.QuotaError
	switch {
	case errors.As(err, &qe):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(qe.RetryAfter)))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, resilient.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, registry.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		// The client went away; the status code is for the log line only.
		http.Error(w, err.Error(), 499)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// retryAfterSeconds rounds a retry hint up to whole seconds, at least 1 —
// Retry-After carries integral seconds.
func retryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// readGraph parses the request body (binary .llpg or DIMACS .gr, sniffed
// by magic) under the configured body limit.
func (s *server) readGraph(req *http.Request) (*graph.CSR, error) {
	return registry.Decode(s.cfg.workers, http.MaxBytesReader(nil, req.Body, s.cfg.maxBody))
}

// tenantFor resolves the request's tenant identity for quota accounting:
// the X-API-Key header when present, else the shared anonymous bucket.
func tenantFor(req *http.Request) string {
	if key := req.Header.Get("X-API-Key"); key != "" {
		return key
	}
	return "anonymous"
}

// handlePutGraph registers (or re-registers) a named graph from the
// request body, or — with ?path= and -graph-dir configured — from a file
// on the server's disk.
func (s *server) handlePutGraph(w http.ResponseWriter, req *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	id := req.PathValue("id")
	var info registry.GraphInfo
	var err error
	if rel := req.URL.Query().Get("path"); rel != "" {
		info, err = s.putFromDisk(id, rel)
	} else {
		info, err = s.reg.PutData(id, http.MaxBytesReader(nil, req.Body, s.cfg.maxBody))
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, os.ErrNotExist) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(info)
}

// putFromDisk loads a graph file from inside -graph-dir. The relative path
// must stay inside the directory; anything else is rejected before touching
// the filesystem.
func (s *server) putFromDisk(id, rel string) (registry.GraphInfo, error) {
	if s.cfg.graphDir == "" {
		return registry.GraphInfo{}, errors.New("server-side graph loading is disabled (start with -graph-dir)")
	}
	if !filepath.IsLocal(rel) {
		return registry.GraphInfo{}, fmt.Errorf("path %q escapes the graph directory", rel)
	}
	f, err := os.Open(filepath.Join(s.cfg.graphDir, rel))
	if err != nil {
		return registry.GraphInfo{}, err
	}
	defer f.Close()
	return s.reg.PutData(id, f)
}

func (s *server) handleGetGraph(w http.ResponseWriter, req *http.Request) {
	info, err := s.reg.Get(req.PathValue("id"))
	if err != nil {
		writeSolveError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(info)
}

func (s *server) handleDeleteGraph(w http.ResponseWriter, req *http.Request) {
	if err := s.reg.Delete(req.PathValue("id")); err != nil {
		writeSolveError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.reg.List())
}

// registrySolveReply is the /graphs/{id}/solve response body: the one-shot
// reply plus cache provenance.
type registrySolveReply struct {
	solveReply
	GraphID      string `json:"graph_id"`
	GraphVersion uint64 `json:"graph_version"`
	Cached       bool   `json:"cached"`
	Shared       bool   `json:"shared"`
}

// handleRegistrySolve answers a solve of a registered graph through the
// registry's quota gate, result cache, and singleflight group.
func (s *server) handleRegistrySolve(w http.ResponseWriter, req *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	var version uint64
	if raw := req.URL.Query().Get("version"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil || v == 0 {
			http.Error(w, fmt.Sprintf("bad version %q", raw), http.StatusBadRequest)
			return
		}
		version = v
	}
	budget, err := s.solveBudget(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx := req.Context()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}

	res, err := s.reg.Solve(ctx, tenantFor(req), req.PathValue("id"), version, registry.SolveOptions{})
	if err != nil {
		writeSolveError(w, err)
		return
	}
	writeSolveReply(w, registrySolveReply{
		solveReply:   newSolveReply(res.Vertices, res.Edges, res.Result),
		GraphID:      res.GraphID,
		GraphVersion: res.Version,
		Cached:       res.Cached,
		Shared:       res.Shared,
	}, replyIDs(req, res.Result))
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	st := s.runner.Stats()
	status := "ok"
	code := http.StatusOK
	if !s.streams.ready.Load() {
		// Startup recovery is still replaying stream WALs: keep load
		// balancers away until every acknowledged batch is back.
		status = "recovering"
		code = http.StatusServiceUnavailable
	}
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	if code == http.StatusServiceUnavailable {
		// Both 503 windows are transient (recovery finishes, the drained
		// process restarts); tell pollers when to come back.
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"status\":%q,\"solves\":%d,\"shed\":%d}\n", status, st.Solves, st.Shed)
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// The Prometheus text exposition format requires the charset parameter;
	// scrapers are lenient but conformance checkers are not.
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var buf bytes.Buffer
	if err := s.flight.WritePrometheus(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBreakerMetrics(&buf, s.runner)
	writeRunnerMetrics(&buf, s.runner.Stats())
	writeRegistryMetrics(&buf, s.reg.Stats())
	_ = s.httpm.WritePrometheus(&buf)
	writeTraceStoreMetrics(&buf, s.traces.Stats(), s.traces.KeptCount())
	writeStreamMetrics(&buf, s.streams)
	writeReplicaMetrics(&buf, s.streams)
	_, _ = w.Write(buf.Bytes())
}

// writeRegistryMetrics appends the graph registry's resident-state gauges
// and lifetime cache/quota counters.
func writeRegistryMetrics(w io.Writer, st registry.Stats) {
	fmt.Fprintln(w, "# HELP llpmst_registry_gauge Graph registry resident state by kind.")
	fmt.Fprintln(w, "# TYPE llpmst_registry_gauge gauge")
	fmt.Fprintf(w, "llpmst_registry_gauge{kind=\"graphs\"} %d\n", st.Graphs)
	fmt.Fprintf(w, "llpmst_registry_gauge{kind=\"resident_bytes\"} %d\n", st.ResidentBytes)
	fmt.Fprintf(w, "llpmst_registry_gauge{kind=\"cached_results\"} %d\n", st.CachedResults)
	fmt.Fprintln(w, "# HELP llpmst_registry_total Lifetime graph registry stats by kind.")
	fmt.Fprintln(w, "# TYPE llpmst_registry_total counter")
	for _, kv := range []struct {
		kind string
		v    int64
	}{
		{"puts", st.Puts},
		{"cache_hits", st.Hits},
		{"cache_misses", st.Misses},
		{"singleflight_shared", st.Shared},
		{"solves", st.Solves},
		{"evictions", st.Evictions},
		{"quota_shed", st.QuotaShed},
	} {
		fmt.Fprintf(w, "llpmst_registry_total{kind=%q} %d\n", kv.kind, kv.v)
	}
}

// writeBreakerMetrics appends per-algorithm breaker gauges to the
// flight-recorder export.
func writeBreakerMetrics(w io.Writer, r *resilient.Runner) {
	brs := r.Breakers()
	if len(brs) == 0 {
		return
	}
	fmt.Fprintln(w, "# HELP llpmst_breaker_state Circuit breaker position per algorithm (0=closed, 1=open, 2=half-open).")
	fmt.Fprintln(w, "# TYPE llpmst_breaker_state gauge")
	for _, b := range brs {
		fmt.Fprintf(w, "llpmst_breaker_state{algorithm=%q} %d\n", string(b.Algorithm), int(b.State))
	}
	fmt.Fprintln(w, "# HELP llpmst_breaker_trips_total Lifetime breaker open transitions per algorithm.")
	fmt.Fprintln(w, "# TYPE llpmst_breaker_trips_total counter")
	for _, b := range brs {
		fmt.Fprintf(w, "llpmst_breaker_trips_total{algorithm=%q} %d\n", string(b.Algorithm), b.Trips)
	}
}

// writeRunnerMetrics appends the runner's lifetime stats.
func writeRunnerMetrics(w io.Writer, st resilient.Stats) {
	fmt.Fprintln(w, "# HELP llpmst_resilient_total Lifetime resilient-runner stats by kind.")
	fmt.Fprintln(w, "# TYPE llpmst_resilient_total counter")
	for _, kv := range []struct {
		kind string
		v    int64
	}{
		{"solves", st.Solves},
		{"shed", st.Shed},
		{"legs_launched", st.LegsLaunched},
		{"hedges_launched", st.HedgesLaunched},
		{"hedge_wins", st.HedgeWins},
		{"fallbacks_used", st.FallbacksUsed},
		{"verify_failures", st.VerifyFailures},
		{"breaker_trips", st.BreakerTrips},
		{"losers_cancelled", st.LosersCancelled},
		{"losers_completed", st.LosersCompleted},
	} {
		fmt.Fprintf(w, "llpmst_resilient_total{kind=%q} %d\n", kv.kind, kv.v)
	}
}
