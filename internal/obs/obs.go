package obs

// Counter identifies a monotonic count. Algorithms add to these through
// Collector.Count; which counters fire depends on the algorithm (see the
// constants' comments).
type Counter uint8

// The defined counters.
const (
	// CtrSchedPush counts items pushed into scheduler work queues
	// (sched.ForEachAsync and friends).
	CtrSchedPush Counter = iota
	// CtrSchedPop counts items popped from a worker's own queue.
	CtrSchedPop
	// CtrSchedSteal counts successful steal operations (batches, not items).
	CtrSchedSteal
	// CtrSchedLevels counts priority levels opened by ForEachOrdered.
	CtrSchedLevels
	// CtrRounds counts outer contraction rounds (Boruvka family).
	CtrRounds
	// CtrJumpRounds counts LLP pointer-jumping sweeps (LLP-Boruvka).
	CtrJumpRounds
	// CtrJumpAdvances counts pointer-jump advance operations (LLP-Boruvka).
	CtrJumpAdvances
	// CtrHeapPush counts priority-queue insertions (Prim family).
	CtrHeapPush
	// CtrHeapPop counts priority-queue removals (Prim family).
	CtrHeapPop
	// CtrEarlyFix counts vertices fixed through a minimum-weight edge
	// without heap traffic (LLP-Prim's "second way").
	CtrEarlyFix
	// CtrSchedPanics counts worker panics recovered by the schedulers and
	// converted into PanicError results.
	CtrSchedPanics
	// CtrHedgeLaunched counts backup algorithms launched by the resilient
	// runner after the hedge delay expired.
	CtrHedgeLaunched
	// CtrHedgeWon counts hedged solves where the backup beat the primary.
	CtrHedgeWon
	// CtrBreakerOpen counts circuit-breaker trips (closed/half-open -> open).
	CtrBreakerOpen
	// CtrAdmitShed counts requests shed by admission control (concurrency or
	// memory budget).
	CtrAdmitShed
	// CtrVerifyFailed counts verification-gate failures (CheckForest or a
	// sampled VerifyMinimum rejecting a produced forest).
	CtrVerifyFailed
	// CtrFallbackUsed counts solves answered by the sequential Kruskal
	// fallback after the portfolio failed.
	CtrFallbackUsed
	// CtrRegistryPut counts graph registrations (new ids and version bumps).
	CtrRegistryPut
	// CtrRegistryHit counts solve requests answered from the registry's
	// completed-result cache.
	CtrRegistryHit
	// CtrRegistryMiss counts solve requests that found no cached result and
	// no in-flight solve to join.
	CtrRegistryMiss
	// CtrRegistrySolve counts underlying solver calls launched by the
	// registry (each collapses any number of concurrent requests).
	CtrRegistrySolve
	// CtrRegistryShared counts solve requests that joined an in-flight
	// singleflight solve instead of launching their own.
	CtrRegistryShared
	// CtrRegistryEvict counts graph snapshots evicted by the registry's LRU
	// memory bound.
	CtrRegistryEvict
	// CtrQuotaShed counts solve requests rejected by per-tenant quotas.
	CtrQuotaShed
	// CtrStreamBatch counts update batches applied by a streaming engine.
	CtrStreamBatch
	// CtrStreamSwap counts forest edge replacements: an insert evicting a
	// heavier cycle edge, or a forest-edge delete relinking the minimum
	// crossing edge found by its exact scan of the smaller side.
	CtrStreamSwap
	// CtrWALAppend counts records appended to a write-ahead log.
	CtrWALAppend
	// CtrWALFsync counts fsync calls issued by a write-ahead log.
	CtrWALFsync
	// CtrRecoverReplayed counts WAL batches re-applied during recovery.
	CtrRecoverReplayed
	// CtrRecoverTorn counts torn or corrupt WAL tails detected (and
	// truncated) during recovery.
	CtrRecoverTorn
	// CtrSemiSpmvRows counts matrix rows reduced by the semiring backend's
	// min-plus SpMV sweeps (one row per live component per round).
	CtrSemiSpmvRows
	// CtrSemiSpmvArcs counts packed keys streamed by those row reductions
	// (two per live edge per round: an edge appears in both endpoint rows).
	CtrSemiSpmvArcs
	// CtrSemiShards counts cache-sized row shards handed to the work-
	// stealing scheduler by the semiring backend's SpMV phases.
	CtrSemiShards
	// CtrReplicaShip counts WAL records shipped to followers (commit-path
	// and catch-up shipping both count).
	CtrReplicaShip
	// CtrReplicaAck counts batches acknowledged at the configured
	// replication quorum.
	CtrReplicaAck
	// CtrReplicaDegraded counts writes rejected because the replica set
	// could not reach quorum (the stream is read-only until it heals).
	CtrReplicaDegraded
	// CtrReplicaCatchupRecords counts WAL records re-shipped by follower
	// catch-up (as opposed to the synchronous commit path).
	CtrReplicaCatchupRecords
	// CtrReplicaCatchupSnapshots counts full snapshot installs shipped to
	// followers whose high-water mark fell behind the compacted WAL.
	CtrReplicaCatchupSnapshots
	// CtrReplicaReconnects counts follower transport (re)connections.
	CtrReplicaReconnects

	// NumCounters is the number of defined counters (array sizing).
	NumCounters
)

// String names the counter for reports.
func (c Counter) String() string {
	switch c {
	case CtrSchedPush:
		return "sched.push"
	case CtrSchedPop:
		return "sched.pop"
	case CtrSchedSteal:
		return "sched.steal"
	case CtrSchedLevels:
		return "sched.levels"
	case CtrRounds:
		return "rounds"
	case CtrJumpRounds:
		return "jump.rounds"
	case CtrJumpAdvances:
		return "jump.advances"
	case CtrHeapPush:
		return "heap.push"
	case CtrHeapPop:
		return "heap.pop"
	case CtrEarlyFix:
		return "earlyfix"
	case CtrSchedPanics:
		return "sched.panics"
	case CtrHedgeLaunched:
		return "hedge.launched"
	case CtrHedgeWon:
		return "hedge.won"
	case CtrBreakerOpen:
		return "breaker.open"
	case CtrAdmitShed:
		return "admit.shed"
	case CtrVerifyFailed:
		return "verify.failed"
	case CtrFallbackUsed:
		return "fallback.used"
	case CtrRegistryPut:
		return "registry.put"
	case CtrRegistryHit:
		return "registry.cache.hit"
	case CtrRegistryMiss:
		return "registry.cache.miss"
	case CtrRegistrySolve:
		return "registry.solve"
	case CtrRegistryShared:
		return "registry.singleflight.shared"
	case CtrRegistryEvict:
		return "registry.evict"
	case CtrQuotaShed:
		return "quota.shed"
	case CtrStreamBatch:
		return "stream.batch"
	case CtrStreamSwap:
		return "stream.swap"
	case CtrWALAppend:
		return "wal.append"
	case CtrWALFsync:
		return "wal.fsync"
	case CtrRecoverReplayed:
		return "recover.replayed"
	case CtrRecoverTorn:
		return "recover.torn"
	case CtrSemiSpmvRows:
		return "semi.spmv.rows"
	case CtrSemiSpmvArcs:
		return "semi.spmv.arcs"
	case CtrSemiShards:
		return "semi.shards"
	case CtrReplicaShip:
		return "replica.ship"
	case CtrReplicaAck:
		return "replica.ack"
	case CtrReplicaDegraded:
		return "replica.degraded"
	case CtrReplicaCatchupRecords:
		return "replica.catchup.records"
	case CtrReplicaCatchupSnapshots:
		return "replica.catchup.snapshots"
	case CtrReplicaReconnects:
		return "replica.reconnects"
	}
	return "counter(?)"
}

// Gauge identifies an instantaneous level. Collectors are free to keep the
// last value, the maximum, or a full series; Recording keeps the maximum,
// the useful summary for capacity questions ("how deep did queues get").
type Gauge uint8

// The defined gauges.
const (
	// GaugeQueueDepth is a scheduler worker's local queue depth.
	GaugeQueueDepth Gauge = iota
	// GaugeFrontier is the size of a parallel wave/frontier.
	GaugeFrontier
	// GaugeLiveEdges is the surviving edge count entering a contraction
	// round.
	GaugeLiveEdges
	// GaugeHeapSize is the priority-queue size at a wave boundary (Prim
	// family).
	GaugeHeapSize
	// GaugeReplicaLag is how many batches the furthest-behind follower
	// trails the primary's high-water mark, sampled at each quorum ack.
	GaugeReplicaLag

	// NumGauges is the number of defined gauges (array sizing).
	NumGauges
)

// String names the gauge for reports.
func (g Gauge) String() string {
	switch g {
	case GaugeQueueDepth:
		return "sched.queue_depth"
	case GaugeFrontier:
		return "frontier"
	case GaugeLiveEdges:
		return "live_edges"
	case GaugeHeapSize:
		return "heap.size"
	case GaugeReplicaLag:
		return "replica.lag"
	}
	return "gauge(?)"
}

// Tracer receives named phase spans. Span is called at phase start and the
// returned func at phase end; implementations timestamp both sides.
// Span names should be stable literals ("mwe", "contract", ...) so that
// no-op calls do not allocate.
type Tracer interface {
	// Span opens a named phase and returns the closer for it.
	Span(name string) (end func())
}

// Collector is a Tracer that additionally receives counters and gauges.
// Implementations must be safe for concurrent use: scheduler workers flush
// into one shared Collector.
type Collector interface {
	Tracer
	// Count adds delta (which may be negative for corrections, though the
	// runtime only emits non-negative deltas) to counter c.
	Count(c Counter, delta int64)
	// Gauge reports an observed instantaneous value of g.
	Gauge(g Gauge, v int64)
}

// nopEnd is the shared span closer returned by Nop, so Span never
// allocates.
var nopEnd = func() {}

// Nop is the free Collector: every method is empty. The zero value is
// ready to use.
type Nop struct{}

// Span implements Tracer with a shared, empty closer.
func (Nop) Span(string) func() { return nopEnd }

// Count implements Collector by discarding the count.
func (Nop) Count(Counter, int64) {}

// Gauge implements Collector by discarding the value.
func (Nop) Gauge(Gauge, int64) {}

// Or returns col if non-nil and the Nop collector otherwise, so call sites
// can instrument unconditionally.
func Or(col Collector) Collector {
	if col == nil {
		return Nop{}
	}
	return col
}

// RoundMarker is implemented by collectors that segment their event stream
// into algorithm rounds (waves, contraction rounds). Collectors
// that only keep totals ignore round structure and need not implement it.
type RoundMarker interface {
	// Round declares that round r is starting now.
	Round(r int64)
}

// MarkRound tells col that round r is starting, if col tracks rounds, and
// is free otherwise. Round numbering is per-run and may restart; round-
// aware collectors segment chronologically rather than keying on r.
func MarkRound(col Collector, r int64) {
	if m, ok := col.(RoundMarker); ok {
		m.Round(r)
	}
}

// WorkerAttributor is implemented by collectors that can attribute events
// to individual workers (the FlightRecorder's per-worker shards).
type WorkerAttributor interface {
	// Worker returns a Collector whose events carry worker id w.
	Worker(w int) Collector
}

// ForWorker returns col's view attributed to worker w when col supports
// attribution, and col itself otherwise — callers instrument per-worker
// code unconditionally and pay nothing when attribution is off.
func ForWorker(col Collector, w int) Collector {
	if a, ok := col.(WorkerAttributor); ok {
		return a.Worker(w)
	}
	return col
}

// tee fans every Collector call out to two collectors, forwarding round
// marks and worker attribution to whichever side supports them.
type tee struct {
	a, b Collector
}

// Tee returns a Collector that forwards to both a and b. Nil or Nop sides
// collapse, so Tee(col, Nop{}) == col. The combined Span allocates one
// closure per call; use Tee for driver-level plumbing (mstbench combining a
// Recording with a FlightRecorder), not on per-item hot paths.
func Tee(a, b Collector) Collector {
	if a == nil || a == (Nop{}) {
		return Or(b)
	}
	if b == nil || b == (Nop{}) {
		return a
	}
	return tee{a, b}
}

// Span implements Tracer by opening the span on both sides.
func (t tee) Span(name string) func() {
	ea, eb := t.a.Span(name), t.b.Span(name)
	return func() { ea(); eb() }
}

// Count implements Collector on both sides.
func (t tee) Count(c Counter, delta int64) {
	t.a.Count(c, delta)
	t.b.Count(c, delta)
}

// Gauge implements Collector on both sides.
func (t tee) Gauge(g Gauge, v int64) {
	t.a.Gauge(g, v)
	t.b.Gauge(g, v)
}

// Round implements RoundMarker on whichever sides track rounds.
func (t tee) Round(r int64) {
	MarkRound(t.a, r)
	MarkRound(t.b, r)
}

// Worker implements WorkerAttributor by attributing both sides.
func (t tee) Worker(w int) Collector {
	return tee{ForWorker(t.a, w), ForWorker(t.b, w)}
}
