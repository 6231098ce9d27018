// Package llpmst computes minimum spanning trees and forests with the
// parallel algorithms of "Parallel Minimum Spanning Tree Algorithms via
// Lattice Linear Predicate Detection" (Alves & Garg, 2022): LLP-Prim and
// LLP-Boruvka, alongside the classical baselines they are measured against
// (Prim, Boruvka, parallel Boruvka, Kruskal).
//
// # Quick start
//
//	g, err := llpmst.NewGraph(4, []llpmst.Edge{
//		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3}, {U: 3, V: 0, W: 4},
//	})
//	if err != nil { ... }
//	f := llpmst.MinimumSpanningForest(g, llpmst.Options{})
//	fmt.Println(f.Weight, f.EdgeIDs)
//
// # Choosing an algorithm
//
// MinimumSpanningForest runs LLP-Boruvka at every worker count: on this
// implementation it is the fastest backend on every measured input family,
// at one worker and at two (BENCH_perf.json), so no single-worker switch to
// LLP-Prim pays. Call a specific algorithm directly, or Run with an
// Algorithm constant, to override.
//
// All algorithms return the same, unique forest: ties between equal weights
// are broken by canonical edge id, the paper's "make weights unique by
// incorporating identities" device.
//
// # The LLP framework
//
// The generic engine (the paper's Algorithm 1) is exposed through
// LLPPredicate and SolveLLP; ShortestPaths and ConnectedComponents are two
// non-MST instances included to show the framework's breadth.
package llpmst

import (
	"context"
	"io"
	"os"

	"llpmst/internal/fault"
	"llpmst/internal/graph"
	"llpmst/internal/llp"
	"llpmst/internal/mst"
	"llpmst/internal/obs"
	"llpmst/internal/par"
	"llpmst/internal/registry"
	"llpmst/internal/resilient"
)

// Edge is one undirected weighted edge: endpoints U, V and a finite,
// non-negative weight W.
type Edge = graph.Edge

// Graph is an immutable undirected weighted graph in CSR form.
type Graph = graph.CSR

// Stats summarizes a graph's shape; see (*Graph).ComputeStats.
type Stats = graph.Stats

// Forest is a minimum spanning forest: sorted canonical edge ids, total
// weight, and tree count.
type Forest = mst.Forest

// Options configures worker counts and the ablation switches of the LLP
// algorithms. The zero value is the paper-default configuration with an
// auto worker count: one worker per 2^19 elements of n+m, at least one and
// at most GOMAXPROCS (see mst.Options.Workers). An explicit Workers is used
// as given.
type Options = mst.Options

// Algorithm names one of the implemented MSF algorithms, for use with Run.
type Algorithm = mst.Algorithm

// WorkMetrics counts machine-independent operations (heap traffic, early
// fixes, contraction rounds, ...). Set Options.Metrics to collect them —
// they quantify the paper's mechanism claims, e.g. that LLP-Prim performs
// fewer heap operations than Prim.
type WorkMetrics = mst.WorkMetrics

// Workspace is a reusable arena for the parallel algorithms' O(n+m) scratch
// state. Set Options.Workspace to reach O(1) steady-state allocations across
// repeated runs; one Workspace serves one run at a time. See mst.Workspace.
type Workspace = mst.Workspace

// NewWorkspace returns an empty Workspace; buffers grow lazily on first use.
func NewWorkspace() *Workspace { return mst.NewWorkspace() }

// The implemented algorithms (see Run).
const (
	AlgPrim            = mst.AlgPrim
	AlgPrimLazy        = mst.AlgPrimLazy
	AlgLLPPrim         = mst.AlgLLPPrim
	AlgLLPPrimParallel = mst.AlgLLPPrimParallel
	AlgLLPPrimAsync    = mst.AlgLLPPrimAsync
	AlgBoruvka         = mst.AlgBoruvka
	AlgParallelBoruvka = mst.AlgParallelBoruvka
	AlgLLPBoruvka      = mst.AlgLLPBoruvka
	AlgSemiringBoruvka = mst.AlgSemiringBoruvka
	AlgKruskal         = mst.AlgKruskal
)

// Algorithms lists every implemented algorithm.
func Algorithms() []Algorithm { return mst.Algorithms() }

// NewGraph builds a graph with n vertices from an undirected edge list.
// Self-loops are dropped; parallel edges are kept. Endpoints must be < n and
// weights finite and non-negative. The edge list is retained; do not modify
// it afterwards.
func NewGraph(n int, edges []Edge) (*Graph, error) {
	return graph.FromEdges(0, n, edges)
}

// NewGraphWorkers is NewGraph with an explicit builder worker count.
func NewGraphWorkers(workers, n int, edges []Edge) (*Graph, error) {
	return graph.FromEdges(workers, n, edges)
}

// MinimumSpanningForest computes the minimum spanning forest with
// LLP-Boruvka (Algorithm 6) at the configured worker count.
func MinimumSpanningForest(g *Graph, opts Options) *Forest {
	f, _ := mst.LLPBoruvka(g, opts)
	return f
}

// MinimumSpanningForestCtx is MinimumSpanningForest with cooperative
// cancellation: ctx is polled throughout the run, and a cancelled run
// returns promptly with the partial forest built so far (always a subset of
// the canonical MSF) and an error wrapping ctx.Err(). Test with
// errors.Is(err, context.Canceled) or context.DeadlineExceeded.
func MinimumSpanningForestCtx(ctx context.Context, g *Graph, opts Options) (*Forest, error) {
	opts.Ctx = ctx
	return mst.LLPBoruvka(g, opts)
}

// Run computes the minimum spanning forest with the named algorithm.
func Run(alg Algorithm, g *Graph, opts Options) (*Forest, error) {
	return mst.Run(alg, g, opts)
}

// RunCtx is Run with cooperative cancellation (see
// MinimumSpanningForestCtx for the cancellation contract). The ctx
// argument takes precedence over opts.Ctx.
func RunCtx(ctx context.Context, alg Algorithm, g *Graph, opts Options) (*Forest, error) {
	return mst.RunCtx(ctx, alg, g, opts)
}

// Prim runs the classical Prim's algorithm (indexed heap, Algorithm 2).
func Prim(g *Graph) *Forest { return mst.Prim(g) }

// LLPPrim runs the sequential LLP-Prim (Algorithm 5, 1 thread).
func LLPPrim(g *Graph, opts Options) *Forest { f, _ := mst.LLPPrim(g, opts); return f }

// LLPPrimParallel runs LLP-Prim with the bag R processed in parallel
// frontier waves.
func LLPPrimParallel(g *Graph, opts Options) *Forest { f, _ := mst.LLPPrimParallel(g, opts); return f }

// LLPPrimAsync runs LLP-Prim with the bag R processed by an asynchronous
// work-stealing scheduler (the Galois-style schedule the paper's
// implementation uses).
func LLPPrimAsync(g *Graph, opts Options) *Forest { f, _ := mst.LLPPrimAsync(g, opts); return f }

// Boruvka runs the sequential Boruvka's algorithm (Algorithm 3).
func Boruvka(g *Graph) *Forest { return mst.Boruvka(g) }

// ParallelBoruvka runs the GBBS-style parallel Boruvka baseline.
func ParallelBoruvka(g *Graph, opts Options) *Forest { f, _ := mst.ParallelBoruvka(g, opts); return f }

// LLPBoruvka runs LLP-Boruvka (Algorithm 6).
func LLPBoruvka(g *Graph, opts Options) *Forest { f, _ := mst.LLPBoruvka(g, opts); return f }

// SemiringBoruvka runs the sparse-matrix (GraphBLAS-style) Boruvka backend:
// per-round min-edge selection as a min-plus semiring SpMV over the packed
// (weight, id) keys, with no atomics in the row-reduction loop. It produces
// the same unique MSF as every other algorithm here.
func SemiringBoruvka(g *Graph, opts Options) *Forest { f, _ := mst.SemiringBoruvka(g, opts); return f }

// Kruskal runs the classical Kruskal's algorithm.
func Kruskal(g *Graph) *Forest { return mst.Kruskal(g) }

// Observer receives runtime observability events from a run: phase spans,
// scheduler counters (pushes, pops, steals), contraction-round and
// pointer-jumping counters, and gauges (queue depth, frontier size, live
// edges). Set Options.Observer, or attach one to a context with
// WithObserver. Implementations must be safe for concurrent use; the
// default (nil) observer costs nothing on the hot paths.
type Observer = obs.Collector

// ObsCounter and ObsGauge identify the monotonic counters and level gauges
// reported to an Observer; their String methods give stable names
// ("sched.push", "rounds", "queue.depth", ...).
type (
	ObsCounter = obs.Counter
	ObsGauge   = obs.Gauge
)

// RecordingObserver is an Observer that accumulates everything in memory:
// per-span wall-clock timeline, counter totals, and gauge maxima. Safe for
// concurrent use; see NewRecordingObserver.
type RecordingObserver = obs.Recording

// NewRecordingObserver returns an empty RecordingObserver. Query it with
// Counter/GaugeMax/Spans after the run, or serialize the whole capture with
// WriteTimeline (the payload behind mstbench -trace-out).
func NewRecordingObserver() *RecordingObserver { return obs.NewRecording() }

// WithObserver returns a context carrying col. Runs that receive the
// context (RunCtx, MinimumSpanningForestCtx, or Options.Ctx) report to col
// without needing Options.Observer set — useful when the context already
// flows through the call stack.
func WithObserver(ctx context.Context, col Observer) context.Context {
	return obs.NewContext(ctx, col)
}

// FlightRecorder is an always-on, allocation-free Observer: per-worker ring
// buffers of timestamped events (spans, counter deltas, gauge samples, round
// markers) with worker and round attribution. After — or during — a run,
// query RoundSeries for per-round convergence data (live edges, pointer-jump
// work, early-fix vs heap traffic), SpanSummaries for log-bucket latency
// digests, or export the capture with WriteChromeTrace (Perfetto-loadable,
// one track per worker), WritePrometheus / WriteProgress (the payloads
// behind mstbench's /metrics and /progress endpoints), and WriteRoundCSV.
type FlightRecorder = obs.FlightRecorder

// RoundStats is one round's segment of a FlightRecorder capture: counter
// deltas and last gauge samples between consecutive round markers.
type RoundStats = obs.RoundStats

// SpanSummary is a FlightRecorder latency digest for one span name: count,
// total, and p50/p95/p99 from log-2 nanosecond buckets.
type SpanSummary = obs.SpanSummary

// NewFlightRecorder returns a FlightRecorder with one event ring per worker
// (plus one for the driver). workers <= 0 sizes for GOMAXPROCS; eventCap <= 0
// picks the default per-ring capacity. Rings overwrite oldest events when
// full, so a recorder is safe to leave attached to unbounded work.
func NewFlightRecorder(workers, eventCap int) *FlightRecorder {
	return obs.NewFlightRecorder(workers, eventCap)
}

// The observer counter and gauge identities most useful with a
// FlightRecorder's RoundSeries: contraction and pointer-jumping work for the
// Boruvka family, early-fix vs heap traffic for the Prim family.
const (
	CtrRounds       = obs.CtrRounds
	CtrJumpRounds   = obs.CtrJumpRounds
	CtrJumpAdvances = obs.CtrJumpAdvances
	CtrEarlyFix     = obs.CtrEarlyFix
	CtrHeapPush     = obs.CtrHeapPush
	CtrHeapPop      = obs.CtrHeapPop

	GaugeLiveEdges = obs.GaugeLiveEdges
	GaugeFrontier  = obs.GaugeFrontier
	GaugeHeapSize  = obs.GaugeHeapSize
)

// TraceID is a 128-bit W3C trace-context trace ID.
type TraceID = obs.TraceID

// SpanID is a 64-bit W3C trace-context span ID.
type SpanID = obs.SpanID

// TraceRef is a lightweight handle for opening child spans of an existing
// span; the zero TraceRef is a valid no-op.
type TraceRef = obs.TraceRef

// Span is one open span of a request trace. Spans are value handles into a
// TraceStore's pre-allocated storage; the zero Span is a valid no-op.
type Span = obs.Span

// TraceStore is a fixed-memory tail-sampling trace store: traces are
// recorded unconditionally and the keep/drop decision runs at completion,
// when the duration and error status are known. Errored traces and the
// slow tail are always kept; the rest are coin-flipped at SampleRate.
type TraceStore = obs.TraceStore

// TraceStoreConfig sizes a TraceStore; the zero value picks usable
// defaults. See obs.TraceStoreConfig.
type TraceStoreConfig = obs.TraceStoreConfig

// TraceStoreStats counts a TraceStore's sampling decisions.
type TraceStoreStats = obs.TraceStoreStats

// TraceData is a kept trace's exportable span tree; TraceSummary is its
// index row. TraceData's WriteJSON and WriteChromeTrace render it for
// humans (the latter loads into Perfetto / chrome://tracing).
type (
	TraceData    = obs.TraceData
	TraceSummary = obs.TraceSummary
)

// NewTraceStore builds a TraceStore; all trace and span memory is
// allocated up front, so the recording fast path stays allocation-free.
func NewTraceStore(cfg TraceStoreConfig) *TraceStore { return obs.NewTraceStore(cfg) }

// ParseTraceparent parses a W3C traceparent header value.
func ParseTraceparent(s string) (tid TraceID, parent SpanID, flags byte, ok bool) {
	return obs.ParseTraceparent(s)
}

// FormatTraceparent renders a W3C traceparent header value.
func FormatTraceparent(tid TraceID, span SpanID, flags byte) string {
	return obs.FormatTraceparent(tid, span, flags)
}

// ContextWithTrace returns ctx carrying ref; the library's serving layers
// (registry, resilient runner, stream engine) open their child spans under
// whatever trace ref the context carries.
func ContextWithTrace(ctx context.Context, ref TraceRef) context.Context {
	return obs.ContextWithTrace(ctx, ref)
}

// TraceRefFromContext returns the trace ref carried by ctx, or the no-op
// zero TraceRef.
func TraceRefFromContext(ctx context.Context) TraceRef { return obs.TraceRefFromContext(ctx) }

// IncrementalMSF maintains a minimum spanning forest under online edge
// insertions; see NewIncrementalMSF.
type IncrementalMSF = mst.Incremental

// NewIncrementalMSF creates an empty incremental minimum-spanning-forest
// maintainer over n vertices. Each Insert either ignores the new edge, adds
// it, or swaps it for the heaviest edge on the cycle it closes, so the
// maintained forest is always the canonical MSF of everything inserted.
func NewIncrementalMSF(n int) *IncrementalMSF { return mst.NewIncremental(n) }

// FaultPlan is a seeded fault schedule: per-arc drop/duplicate/delay
// probabilities (FaultProbs) and crash schedules (FaultCrash). The zero
// plan injects nothing, and identical plans (seed included) reproduce
// identical fault streams. ResilientChaos.Plan takes one: each arc is one
// algorithm of the portfolio (resilient.ChaosArc), Drop panics its leg and
// Delay stalls it.
type (
	FaultPlan  = fault.Plan
	FaultProbs = fault.Probs
	FaultCrash = fault.Crash
)

// PanicError is the typed error a worker panic inside the parallel runtime
// is converted to: it carries the panic value, the work-item index, and the
// captured stack. Algorithms that hit one still return a sound partial
// forest alongside an error wrapping the PanicError.
type PanicError = par.PanicError

// ResilientRunner is the resilient execution engine: admission control
// (bounded concurrency + memory budget), per-algorithm circuit breakers,
// hedged portfolio execution with adaptive delays, a sampling verification
// gate, and a sequential Kruskal fallback. Safe for concurrent use; one
// runner serves a whole process.
type (
	ResilientRunner = resilient.Runner
	ResilientConfig = resilient.Config
	ResilientResult = resilient.Result
	ResilientStats  = resilient.Stats
	ResilientChaos  = resilient.Chaos
	BreakerStatus   = resilient.BreakerStatus
	BreakerState    = resilient.BreakerState
)

// OverloadError is the typed rejection admission control returns when a
// solve would exceed the runner's concurrency or memory budget; it unwraps
// to ErrOverloaded, so errors.Is(err, ErrOverloaded) matches any shed.
type OverloadError = resilient.OverloadError

// ErrOverloaded is the sentinel every admission-control rejection matches.
var ErrOverloaded = resilient.ErrOverloaded

// NewResilientRunner builds a resilient runner from cfg. The zero Config is
// serviceable: adaptive hedging, an auto-picked portfolio, breakers
// tripping after 3 consecutive failures, and a 2×GOMAXPROCS admission gate.
func NewResilientRunner(cfg ResilientConfig) *ResilientRunner { return resilient.New(cfg) }

// RunResilient answers one solve through a fresh default-configured
// resilient runner and waits for its hedge legs to drain — a convenience
// for one-shot callers; services should build one NewResilientRunner and
// share it.
func RunResilient(ctx context.Context, g *Graph, cfg ResilientConfig) (ResilientResult, error) {
	r := resilient.New(cfg)
	res, err := r.Solve(ctx, g)
	_ = r.Drain(context.Background())
	return res, err
}

// GraphRegistry is the named-graph registry behind mstserve's /graphs
// endpoints: immutable versioned CSR snapshots under an LRU memory bound,
// a version-keyed result cache fronted by singleflight (concurrent misses
// for the same graph collapse into one solve), and per-tenant token-bucket
// quotas. Safe for concurrent use; one registry serves a whole process.
type (
	GraphRegistry        = registry.Registry
	GraphRegistryConfig  = registry.Config
	GraphInfo            = registry.GraphInfo
	RegistrySolveOptions = registry.SolveOptions
	RegistrySolveResult  = registry.SolveResult
	RegistryStats        = registry.Stats
	TenantQuota          = registry.Quota
)

// GraphNotFoundError and QuotaError are the registry's typed failures;
// they unwrap to ErrGraphNotFound and ErrQuotaExceeded respectively, so
// errors.Is works across the facade.
type (
	GraphNotFoundError = registry.NotFoundError
	QuotaError         = registry.QuotaError
)

// Registry sentinel errors: a solve or lookup of an unknown (or
// superseded) graph matches ErrGraphNotFound; a solve rejected by a
// tenant's token bucket matches ErrQuotaExceeded.
var (
	ErrGraphNotFound = registry.ErrNotFound
	ErrQuotaExceeded = registry.ErrQuotaExceeded
)

// NewGraphRegistry builds a graph registry from cfg. The zero Config is
// serviceable for caching alone (no solver: Put/Get/Snapshot work and
// Solve reports it unconfigured); production registries set Solver — a
// *ResilientRunner satisfies the interface directly — plus a memory
// budget and quotas.
func NewGraphRegistry(cfg GraphRegistryConfig) *GraphRegistry { return registry.New(cfg) }

// ForestFromEdgeIDs materializes a Forest from raw edge ids, e.g. the ids a
// server reply lists. The ids are trusted to form a forest; use CheckForest
// to verify.
func ForestFromEdgeIDs(g *Graph, ids []uint32) *Forest {
	return mst.ForestFromEdgeIDs(g, ids)
}

// CheckForest verifies structural validity of a forest (acyclic, spanning,
// consistent bookkeeping) without checking minimality.
func CheckForest(g *Graph, f *Forest) error { return mst.CheckForest(g, f) }

// VerifyMinimum verifies that f is the minimum spanning forest of g via the
// cycle property in O((n+m) log n).
func VerifyMinimum(g *Graph, f *Forest) error { return mst.VerifyMinimum(g, f) }

// ReadDIMACS parses a DIMACS shortest-path (.gr) file, the format of the
// paper's road-network dataset.
func ReadDIMACS(r io.Reader) (*Graph, error) { return graph.ReadDIMACS(0, r) }

// WriteDIMACS writes g in DIMACS .gr format.
func WriteDIMACS(w io.Writer, g *Graph) error { return graph.WriteDIMACS(w, g) }

// LoadGraph reads a graph from a file: .gr (DIMACS) or the compact binary
// .llpg format, chosen by extension sniffing (binary magic).
func LoadGraph(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// The binary magic 0x4c4c5047 serializes little-endian as "GPLL".
	var magic [4]byte
	_, readErr := io.ReadFull(f, magic[:])
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if readErr == nil && magic == [4]byte{'G', 'P', 'L', 'L'} {
		return graph.ReadBinary(0, f)
	}
	return graph.ReadDIMACS(0, f)
}

// ReadMatrixMarket parses a Matrix Market coordinate file (.mtx) into an
// undirected weighted graph.
func ReadMatrixMarket(r io.Reader) (*Graph, error) { return graph.ReadMatrixMarket(0, r) }

// WriteMatrixMarket writes g as a symmetric Matrix Market coordinate file.
func WriteMatrixMarket(w io.Writer, g *Graph) error { return graph.WriteMatrixMarket(w, g) }

// ReadMETIS parses a METIS adjacency file into an undirected weighted graph
// (fmt codes 0 and 001).
func ReadMETIS(r io.Reader) (*Graph, error) { return graph.ReadMETIS(0, r) }

// WriteMETIS writes g in METIS adjacency format with integer edge weights.
func WriteMETIS(w io.Writer, g *Graph) error { return graph.WriteMETIS(w, g) }

// WriteBinaryGraph writes g to w in the compact binary .llpg format.
func WriteBinaryGraph(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// SaveBinary writes g to path in the compact binary format for fast reload.
func SaveBinary(path string, g *Graph) error { return graph.SaveBinary(path, g) }

// LoadBinary reads a graph written by SaveBinary.
func LoadBinary(path string) (*Graph, error) { return graph.LoadBinary(0, path) }

// LLPPredicate is a lattice-linear predicate for the generic LLP engine
// (the paper's Algorithm 1); see SolveLLP.
type LLPPredicate = llp.Predicate

// LLPMode selects the LLP driver: LLPAsync (barrier-free parallel, the
// default), LLPRound (barrier-synchronized rounds) or LLPSequential.
type LLPMode = llp.Mode

// LLP driver modes.
const (
	LLPAsync      = llp.ModeAsync
	LLPRound      = llp.ModeRound
	LLPSequential = llp.ModeSequential
)

// LLPStats reports rounds and advances performed by a driver.
type LLPStats = llp.Stats

// SolveLLP runs the generic LLP algorithm: repeatedly advance every
// forbidden index until none remains. The final state lives in the
// predicate's own storage.
func SolveLLP(mode LLPMode, workers int, pred LLPPredicate) LLPStats {
	return llp.Run(mode, workers, pred)
}

// ShortestPaths computes single-source shortest path distances with the
// LLP-Bellman-Ford instance (+inf for unreachable vertices).
func ShortestPaths(mode LLPMode, workers int, g *Graph, source uint32) []float64 {
	d, _ := llp.SolveShortestPaths(mode, workers, g, source)
	return d
}

// LLPPriorityPredicate extends LLPPredicate with an advance-target
// priority; see SolveLLPPriority.
type LLPPriorityPredicate = llp.PriorityPredicate

// SolveLLPPriority runs the LLP algorithm advancing, each round, only the
// forbidden indices within delta of the minimum priority. With delta == 0
// this is the evaluation order that turns LLP-Bellman-Ford into Dijkstra's
// algorithm (the derivation the paper's reference [15] describes).
func SolveLLPPriority(workers int, pred LLPPriorityPredicate, delta uint64) LLPStats {
	return llp.RunPriority(workers, pred, delta)
}

// ShortestPathsDijkstra computes single-source shortest paths with the
// priority-ordered LLP driver at delta == 0: each reachable vertex settles
// in exactly one advance, Dijkstra's order.
func ShortestPathsDijkstra(workers int, g *Graph, source uint32) []float64 {
	d, _ := llp.SolveShortestPathsDijkstra(workers, g, source)
	return d
}

// ShortestPathsDeltaStepping computes single-source shortest paths with
// bucketed delta-stepping on the ordered work scheduler: buckets of width
// delta run in parallel, in bucket order — the practical point between the
// Bellman-Ford sweeps and Dijkstra's strict order.
func ShortestPathsDeltaStepping(workers int, g *Graph, source uint32, delta float32) []float64 {
	return llp.DeltaStepping(workers, g, source, delta)
}

// ConnectedComponents labels each vertex with the smallest vertex id in its
// component, using the LLP min-label instance.
func ConnectedComponents(mode LLPMode, workers int, g *Graph) []uint32 {
	l, _ := llp.SolveComponents(mode, workers, g)
	return l
}

// StableMarriage computes the man-optimal stable matching with the LLP
// Gale-Shapley instance (§III: one of the problems derivable from the LLP
// algorithm). prefM[m] and prefW[w] are full preference lists (best first);
// the result maps each man to his matched woman.
func StableMarriage(mode LLPMode, workers int, prefM, prefW [][]uint32) []uint32 {
	match, _ := llp.SolveStableMarriage(mode, workers, prefM, prefW)
	return match
}

// IsStableMatching reports whether match is a perfect matching with no
// blocking pair under the given preferences.
func IsStableMatching(prefM, prefW [][]uint32, match []uint32) bool {
	return llp.IsStableMatching(prefM, prefW, match)
}

// MarketClearingPrices computes the componentwise-minimum Walrasian prices
// for a square market (value[b][i] = buyer b's integer valuation of item i)
// with the LLP Demange-Gale-Sotomayor ascending auction (§III's last listed
// LLP-derivable problem). Returns the prices and a clearing assignment
// (buyer -> item, -1 for priced-out buyers).
func MarketClearingPrices(value [][]int64) ([]int64, []int32) {
	p, a, _ := llp.SolveMarketClearing(value)
	return p, a
}
