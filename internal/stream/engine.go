package stream

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"llpmst/internal/fault"
	"llpmst/internal/graph"
	"llpmst/internal/mst"
	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// Sentinel errors of the streaming engine.
var (
	// ErrClosed is returned by operations on a closed engine.
	ErrClosed = errors.New("stream: engine closed")
	// ErrCrashed is returned once an injected crash-stop has killed the
	// engine; all further operations fail until the state is recovered by
	// a fresh Open.
	ErrCrashed = errors.New("stream: engine crashed (injected fault)")
	// ErrCorruptSnapshot wraps snapshot decode failures during recovery.
	// The WAL below the snapshot's high-water mark is compacted away, so a
	// broken snapshot is unrecoverable and Open fails loudly instead of
	// silently serving an empty stream.
	ErrCorruptSnapshot = errors.New("stream: corrupt snapshot")
	// ErrIDsExhausted is returned when the engine has assigned all 2^32
	// edge identities of one process lifetime; a snapshot + reopen
	// compacts identities back to the live edge count.
	ErrIDsExhausted = errors.New("stream: edge identities exhausted")
	// ErrOutOfOrder is returned by ApplyReplicated when a shipped record
	// does not extend the follower's log contiguously: the primary's view
	// of the follower's high-water mark is stale and it must re-run
	// catch-up before shipping more.
	ErrOutOfOrder = errors.New("stream: replicated record out of order")
)

// BatchError reports a batch rejected by validation before anything was
// logged or applied. Op is the offending op's index, or -1 for batch-level
// problems.
type BatchError struct {
	BatchID uint64
	Op      int
	Reason  string
}

func (e *BatchError) Error() string {
	if e.Op < 0 {
		return fmt.Sprintf("stream: batch %d rejected: %s", e.BatchID, e.Reason)
	}
	return fmt.Sprintf("stream: batch %d op %d rejected: %s", e.BatchID, e.Op, e.Reason)
}

// Op is one edge mutation. Inserts add the edge (U, V, W) to the live
// multigraph; deletes remove the earliest-inserted live edge matching
// (U, V, W) exactly (a no-op when none matches).
type Op struct {
	Delete bool    `json:"delete"`
	U      uint32  `json:"u"`
	V      uint32  `json:"v"`
	W      float32 `json:"w"`
}

// Batch is an atomically applied group of ops. IDs are client-assigned,
// start at 1, and must be strictly increasing per stream; a batch at or
// below the engine's high-water mark acknowledges as a duplicate without
// re-applying (idempotent retry).
type Batch struct {
	ID  uint64
	Ops []Op
}

// ApplyResult acknowledges one batch.
type ApplyResult struct {
	BatchID     uint64  `json:"batch_id"`
	Duplicate   bool    `json:"duplicate"`
	Inserted    int     `json:"inserted"`
	Deleted     int     `json:"deleted"`
	Noops       int     `json:"noops"`
	Swaps       int     `json:"swaps"`
	ForestEdges int     `json:"forest_edges"`
	Trees       int     `json:"trees"`
	Weight      float64 `json:"weight"`
}

// RecoveryReport is what Open found on disk: the snapshot it started from,
// the WAL records it replayed or skipped, and whether the log ended in a
// torn or corrupt record (which is truncated away, never applied).
type RecoveryReport struct {
	// SnapshotBatch is the high-water batch ID of the loaded snapshot
	// (0 when no snapshot existed).
	SnapshotBatch uint64 `json:"snapshot_batch"`
	// SnapshotEdges is the live edge count restored from the snapshot.
	SnapshotEdges int `json:"snapshot_edges"`
	// ReplayedBatches is the number of WAL batches re-applied.
	ReplayedBatches int `json:"replayed_batches"`
	// SkippedRecords is the number of intact WAL records at or below the
	// snapshot's high-water mark (left over from a crash between snapshot
	// install and WAL truncation).
	SkippedRecords int `json:"skipped_records"`
	// LastBatch is the stream's high-water batch ID after recovery.
	LastBatch uint64 `json:"last_batch"`
	// Torn reports that replay stopped before the end of the log.
	Torn bool `json:"torn"`
	// TornOffset is the byte offset of the first unusable record.
	TornOffset int64 `json:"torn_offset,omitempty"`
	// TornReason says what was wrong with it.
	TornReason string `json:"torn_reason,omitempty"`
	// WALTruncated reports that the unusable tail was cut off so future
	// appends start from a clean record boundary.
	WALTruncated bool `json:"wal_truncated"`
}

// EngineStats is a snapshot of an engine's lifetime counters and current
// forest shape.
type EngineStats struct {
	Batches    uint64
	Duplicates uint64
	Inserts    uint64
	Deletes    uint64
	Noops      uint64
	Swaps      uint64
	// Deprecated: always 0. Every delete finishes its exact replacement
	// scan, so nothing is recomputed; the field stays only so that
	// existing callers (the benchmark module) still compile.
	Recomputes  uint64
	Snapshots   uint64
	LiveEdges   int
	ForestEdges int
	Trees       int
	Weight      float64
	LastBatch   uint64
}

// Fault-injection node roles for crash-stop schedules (fault.Crash.Node).
// Rounds are the engine's 0-based applied-batch ordinals within one process
// lifetime.
const (
	// FaultNodeAppend tears the WAL append of the round's batch: a prefix
	// of the record reaches the log and the engine dies before
	// acknowledging. Recovery must detect and truncate the torn record.
	FaultNodeAppend uint32 = 0
	// FaultNodeAck kills the engine after the append is durable but before
	// the acknowledgement: the batch survives recovery even though the
	// client never saw an ack, and its retry acknowledges as a duplicate.
	FaultNodeAck uint32 = 1
	// FaultNodeSnapTemp kills the engine after the snapshot temp file is
	// durable but before the rename installs it. Rounds are 0-based
	// snapshot ordinals within one process lifetime. Recovery discards the
	// temp file and restarts from the previous snapshot plus the full WAL.
	FaultNodeSnapTemp uint32 = 2
	// FaultNodeSnapInstall kills the engine after the rename + directory
	// fsync but before the WAL truncation. Rounds are snapshot ordinals.
	// Recovery starts from the new snapshot and skips the WAL records at
	// or below its high-water mark.
	FaultNodeSnapInstall uint32 = 3
)

// Config configures an Engine.
type Config struct {
	// Vertices is the fixed vertex count of the stream's graph.
	Vertices int
	// Dir is the durability directory (WAL + snapshots). Empty means a
	// volatile in-memory engine: no logging, no recovery.
	Dir string
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the flush cadence under SyncInterval (default 100ms).
	SyncInterval time.Duration
	// SnapshotEvery compacts the WAL into a snapshot every that many
	// batches; 0 disables automatic snapshots.
	SnapshotEvery int
	// Deprecated: unused. The engine runs no parallel work; the field
	// stays only so that existing callers (the benchmark module) still
	// compile.
	Workers int
	// Observer receives stream counters and per-batch round marks. Only
	// counters and round marks are emitted, so a shared FlightRecorder is
	// safe even with concurrent solves elsewhere.
	Observer obs.Collector
	// Fault, when non-nil, drives deterministic crash-stop injection; see
	// FaultNodeAppend and FaultNodeAck.
	Fault *fault.Plan
}

// ReplicationGate is called by Apply after the batch's WAL record is
// locally durable and before it is applied or acknowledged. rec is the
// framed record exactly as written to the local log and prev is the
// engine's high-water mark just before this batch — the mark every
// up-to-date follower must present for its log to be a contiguous prefix.
// A replication layer ships the record to followers and returns nil only
// once its ack quorum has the record fsync'd.
//
// On a non-nil error the engine rolls the local log back to its
// pre-append size and fails the Apply: the batch is then durable nowhere
// and was acknowledged to no one, so the client may safely retry the same
// batch ID once the quorum recovers. As the one exception, ErrCrashed is
// treated as a fault-injected process death after the append — the engine
// dies with the record still in its log, exactly as if the process had
// been killed between append and ack.
type ReplicationGate func(ctx context.Context, ref obs.TraceRef, prev, id uint64, rec []byte) error

// Engine maintains the canonical minimum spanning forest of a live edge
// multiset under insert/delete batches, with write-ahead durability.
// Methods are safe for concurrent use (batch application is serialized).
type Engine struct {
	mu  sync.Mutex
	cfg Config
	n   int

	inc       *mst.Incremental
	live      map[uint64][2]uint32 // packed key -> endpoints, all live edges
	adj       [][]arc              // per-vertex live incidences
	forestAdj [][]arc              // per-vertex forest incidences
	nextID    uint32

	lastBatch uint64 // high-water applied batch ID
	applied   uint64 // batches applied this process (fault rounds, obs rounds)
	sinceSnap int
	snapBatch uint64 // high-water batch ID of the on-disk snapshot (0: none)

	wal  *wal
	col  obs.Collector
	inj  *fault.Injector
	gate ReplicationGate

	dead   bool
	closed bool

	// split/scan scratch
	mark      []uint32
	markEpoch uint32
	queueA    []uint32
	queueB    []uint32
	forestBuf []graph.Edge

	stats EngineStats
}

// arc is one incidence of an edge: its packed key and its far endpoint, so
// traversals never look endpoints up in the live map.
type arc struct {
	key uint64
	to  uint32
}

// Open creates or recovers the engine for cfg. With a durability directory
// it loads the latest valid snapshot, replays the WAL above its high-water
// mark, truncates any torn tail, and reports what it did; without one it
// returns a fresh in-memory engine and an empty report.
func Open(cfg Config) (*Engine, *RecoveryReport, error) {
	if cfg.Vertices <= 0 {
		return nil, nil, fmt.Errorf("stream: vertex count %d must be positive", cfg.Vertices)
	}
	e := &Engine{
		cfg:       cfg,
		n:         cfg.Vertices,
		inc:       mst.NewIncremental(cfg.Vertices),
		live:      make(map[uint64][2]uint32),
		adj:       make([][]arc, cfg.Vertices),
		forestAdj: make([][]arc, cfg.Vertices),
		col:       obs.Or(cfg.Observer),
		mark:      make([]uint32, cfg.Vertices),
	}
	if cfg.Fault != nil {
		e.inj = fault.New(*cfg.Fault)
	}
	rep := &RecoveryReport{}
	if cfg.Dir == "" {
		return e, rep, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	// A leftover temp file is a snapshot that never completed; the real
	// snapshot (if any) is still intact.
	_ = os.Remove(filepath.Join(cfg.Dir, snapTempFile))

	snap, ok, err := loadSnapshot(cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	if ok {
		if snap.N != e.n {
			return nil, nil, fmt.Errorf("%w: snapshot has %d vertices, engine configured for %d",
				ErrCorruptSnapshot, snap.N, e.n)
		}
		if err := e.restoreSnapshot(snap); err != nil {
			return nil, nil, err
		}
		e.lastBatch = snap.HighWater
		e.snapBatch = snap.HighWater
		rep.SnapshotBatch = snap.HighWater
		rep.SnapshotEdges = len(snap.Edges)
	}

	walPath := filepath.Join(cfg.Dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	consumed, torn := decodeWAL(data, func(_ []byte, b Batch) error {
		if b.ID <= e.lastBatch {
			rep.SkippedRecords++
			return nil
		}
		if err := e.validateOps(b.ID, b.Ops); err != nil {
			return err
		}
		if _, err := e.applyOps(b.Ops); err != nil {
			return err
		}
		e.lastBatch = b.ID
		rep.ReplayedBatches++
		e.col.Count(obs.CtrRecoverReplayed, 1)
		return nil
	})
	if torn != nil {
		rep.Torn = true
		rep.TornOffset = torn.Offset
		rep.TornReason = torn.Reason
		e.col.Count(obs.CtrRecoverTorn, 1)
	}
	w, err := openWAL(walPath, cfg.Sync, cfg.SyncInterval, e.col)
	if err != nil {
		return nil, nil, err
	}
	if consumed < int64(len(data)) {
		if err := w.TruncateTo(consumed); err != nil {
			w.Close()
			return nil, nil, err
		}
		rep.WALTruncated = true
	}
	e.wal = w
	e.sinceSnap = rep.ReplayedBatches
	rep.LastBatch = e.lastBatch
	return e, rep, nil
}

// restoreSnapshot rebuilds the live set and forest from a decoded snapshot.
// Edges are stored in canonical order, so identities are reassigned densely
// (0..K-1) without disturbing the canonical total order.
func (e *Engine) restoreSnapshot(snap snapshotState) error {
	for i, se := range snap.Edges {
		key := par.PackKey(se.W, uint32(i))
		e.live[key] = [2]uint32{se.U, se.V}
		addArcs(e.adj, se.U, se.V, key)
		if !se.Forest {
			continue
		}
		added, _, hadEvict, err := e.inc.InsertKeyed(se.U, se.V, key)
		if err != nil {
			return fmt.Errorf("%w: edge %d: %v", ErrCorruptSnapshot, i, err)
		}
		if !added || hadEvict {
			return fmt.Errorf("%w: edge %d flagged as forest but does not link two trees",
				ErrCorruptSnapshot, i)
		}
		addArcs(e.forestAdj, se.U, se.V, key)
	}
	e.nextID = uint32(len(snap.Edges))
	return nil
}

// validateOps rejects a batch before anything is logged: endpoints must be
// in range, weights finite and non-negative, inserts must not be
// self-loops. Deletes of absent edges are legal no-ops (retried batches
// must not fail), so they pass validation.
func (e *Engine) validateOps(batchID uint64, ops []Op) error {
	if len(ops) > MaxBatchOps {
		return &BatchError{BatchID: batchID, Op: -1, Reason: fmt.Sprintf("%d ops exceed the %d-op limit", len(ops), MaxBatchOps)}
	}
	for i, op := range ops {
		if int(op.U) >= e.n || int(op.V) >= e.n {
			return &BatchError{BatchID: batchID, Op: i,
				Reason: fmt.Sprintf("endpoints (%d,%d) out of range (n=%d)", op.U, op.V, e.n)}
		}
		if op.W != op.W || op.W < 0 || op.W > maxFiniteW {
			return &BatchError{BatchID: batchID, Op: i, Reason: fmt.Sprintf("invalid weight %v", op.W)}
		}
		if !op.Delete && op.U == op.V {
			return &BatchError{BatchID: batchID, Op: i, Reason: "self-loop insert"}
		}
	}
	return nil
}

const maxFiniteW = 3.4028234663852886e38 // math.MaxFloat32; +Inf and NaN fail the comparisons

// Apply commits one batch: validate, append to the WAL (fsync per policy),
// mutate the forest, maybe snapshot. The returned ApplyResult is the
// acknowledgement; once it is returned under SyncAlways, the batch
// survives any crash.
func (e *Engine) Apply(b Batch) (ApplyResult, error) {
	return e.ApplyCtx(context.Background(), b)
}

// ApplyCtx is Apply with a context whose trace ref (obs.ContextWithTrace),
// if any, records the commit as a "stream.apply" span with "stream.wal.append",
// "stream.wal.fsync", and "stream.snapshot" children — so a slow update
// request is attributable to validation, the disk, or forest maintenance.
// The context is otherwise unused: batch commit is not
// cancellable midway (the WAL append is the durability point).
func (e *Engine) ApplyCtx(ctx context.Context, b Batch) (ApplyResult, error) {
	sp := obs.TraceRefFromContext(ctx).Start("stream.apply")
	res, err := e.apply(ctx, sp, b)
	if sp.Valid() {
		sp.SetInt("batch", int64(b.ID))
		sp.SetInt("ops", int64(len(b.Ops)))
		switch {
		case err == nil && res.Duplicate:
			sp.SetAttr("outcome", "duplicate")
		case err == nil:
			sp.SetAttr("outcome", "ok")
		case errors.As(err, new(*BatchError)):
			sp.SetAttr("outcome", "rejected")
		default:
			// WAL or snapshot failure: exactly the durability incidents the
			// trace store must retain.
			sp.SetErrorString(err.Error())
		}
	}
	sp.End()
	return res, err
}

// SetReplicationGate installs (or, with nil, removes) the replication gate
// consulted between local durability and acknowledgement of every batch.
func (e *Engine) SetReplicationGate(g ReplicationGate) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gate = g
}

func (e *Engine) apply(ctx context.Context, sp obs.Span, b Batch) (ApplyResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ApplyResult{}, ErrClosed
	}
	if e.dead {
		return ApplyResult{}, ErrCrashed
	}
	if b.ID == 0 {
		return ApplyResult{}, &BatchError{BatchID: 0, Op: -1, Reason: "batch ID 0 is reserved"}
	}
	if b.ID <= e.lastBatch {
		e.stats.Duplicates++
		return ApplyResult{
			BatchID:     b.ID,
			Duplicate:   true,
			ForestEdges: e.inc.Edges(),
			Trees:       e.inc.Trees(),
			Weight:      e.inc.Weight(),
		}, nil
	}
	if err := e.validateOps(b.ID, b.Ops); err != nil {
		return ApplyResult{}, err
	}
	if uint64(e.nextID)+uint64(len(b.Ops)) > 1<<32-1 {
		return ApplyResult{}, ErrIDsExhausted
	}

	if e.wal != nil {
		rec := appendRecord(nil, b)
		if e.inj != nil && !e.inj.Alive(FaultNodeAppend, int(e.applied)) {
			// Injected crash mid-append: a deterministic prefix of the
			// record reaches the log; the batch is never acknowledged.
			prefix := 1 + int(b.ID%uint64(len(rec)-1))
			_ = e.wal.appendRaw(rec[:prefix])
			e.dead = true
			return ApplyResult{}, ErrCrashed
		}
		preSize := int64(-1)
		if e.gate != nil {
			var err error
			if preSize, err = e.wal.Size(); err != nil {
				return ApplyResult{}, err
			}
		}
		wsp := sp.Ref().Start("stream.wal.append")
		wsp.SetInt("bytes", int64(len(rec)))
		err := e.wal.Append(rec, wsp.Ref())
		wsp.SetError(err)
		wsp.End()
		if err != nil {
			return ApplyResult{}, err
		}
		if e.inj != nil && !e.inj.Alive(FaultNodeAck, int(e.applied)) {
			// Injected crash after the append: durable but unacknowledged.
			e.dead = true
			return ApplyResult{}, ErrCrashed
		}
		if e.gate != nil {
			if err := e.gate(ctx, sp.Ref(), e.lastBatch, b.ID, rec); err != nil {
				if errors.Is(err, ErrCrashed) {
					// Fault-injected death between append and ack: the
					// record stays in the log, exactly like FaultNodeAck.
					e.dead = true
					return ApplyResult{}, ErrCrashed
				}
				// Quorum not reached: roll the local log back so the batch
				// is durable nowhere and acknowledged to no one. The same
				// batch ID is safe to retry.
				if terr := e.wal.TruncateTo(preSize); terr != nil {
					// The un-replicated record could not be removed; dying
					// beats serving state followers can never converge to.
					e.dead = true
					return ApplyResult{}, fmt.Errorf("stream: rollback after replication failure: %v (replication: %w)", terr, err)
				}
				return ApplyResult{}, err
			}
		}
	}

	ost, err := e.applyOps(b.Ops)
	if err != nil {
		// Unreachable after validation; surface loudly rather than
		// desyncing memory from the log.
		return ApplyResult{}, err
	}
	e.lastBatch = b.ID
	e.applied++
	e.sinceSnap++
	e.stats.Batches++
	e.col.Count(obs.CtrStreamBatch, 1)
	obs.MarkRound(e.col, int64(e.applied))

	if e.wal != nil && e.cfg.SnapshotEvery > 0 && e.sinceSnap >= e.cfg.SnapshotEvery {
		ssp := sp.Ref().Start("stream.snapshot")
		err := e.snapshotLocked()
		ssp.SetError(err)
		ssp.End()
		if err != nil {
			return ApplyResult{}, fmt.Errorf("stream: snapshot after batch %d: %w", b.ID, err)
		}
	}

	return ApplyResult{
		BatchID:     b.ID,
		Inserted:    ost.inserted,
		Deleted:     ost.deleted,
		Noops:       ost.noops,
		Swaps:       ost.swaps,
		ForestEdges: e.inc.Edges(),
		Trees:       e.inc.Trees(),
		Weight:      e.inc.Weight(),
	}, nil
}

type opStats struct {
	inserted, deleted, noops, swaps int
}

// applyOps mutates the live set and forest for one validated batch.
func (e *Engine) applyOps(ops []Op) (opStats, error) {
	var st opStats
	for _, op := range ops {
		if op.Delete {
			kind, err := e.applyDelete(op.U, op.V, op.W, &st)
			if err != nil {
				return st, err
			}
			if kind {
				st.deleted++
			} else {
				st.noops++
			}
			continue
		}
		if err := e.applyInsert(op.U, op.V, op.W, &st); err != nil {
			return st, err
		}
		st.inserted++
	}
	e.stats.Inserts += uint64(st.inserted)
	e.stats.Deletes += uint64(st.deleted)
	e.stats.Noops += uint64(st.noops)
	e.stats.Swaps += uint64(st.swaps)
	return st, nil
}

func (e *Engine) applyInsert(u, v uint32, w float32, st *opStats) error {
	key := par.PackKey(w, e.nextID)
	e.nextID++
	e.live[key] = [2]uint32{u, v}
	addArcs(e.adj, u, v, key)
	added, evicted, hadEvict, err := e.inc.InsertKeyed(u, v, key)
	if err != nil {
		return err
	}
	if added {
		addArcs(e.forestAdj, u, v, key)
	}
	if hadEvict {
		ends := e.live[evicted]
		removeArcs(e.forestAdj, ends[0], ends[1], evicted)
		st.swaps++
		e.col.Count(obs.CtrStreamSwap, 1)
	}
	return nil
}

// applyDelete removes the earliest live edge matching (u, v, w) exactly.
// It reports whether an edge was deleted (false = no-op).
func (e *Engine) applyDelete(u, v uint32, w float32, st *opStats) (bool, error) {
	key, ok := e.findLive(u, v, w)
	if !ok {
		return false, nil
	}
	if !e.inc.HasEdge(key) {
		// Non-forest edge: drop it and the forest is untouched.
		e.dropLive(key)
		return true, nil
	}
	return true, e.deleteForestEdge(key, st)
}

// findLive locates the minimum-key (earliest-inserted) live edge matching
// (u, v, w) exactly, scanning the sparser endpoint's incidence list.
func (e *Engine) findLive(u, v uint32, w float32) (uint64, bool) {
	from, other := u, v
	if len(e.adj[v]) < len(e.adj[u]) {
		from, other = v, u
	}
	best := ^uint64(0)
	found := false
	for _, a := range e.adj[from] {
		if a.to != other || par.KeyWeight(a.key) != w {
			continue
		}
		if a.key < best {
			best, found = a.key, true
		}
	}
	return best, found
}

// dropLive removes key from the live map and both incidence lists.
func (e *Engine) dropLive(key uint64) {
	ends := e.live[key]
	delete(e.live, key)
	removeArcs(e.adj, ends[0], ends[1], key)
}

// addArcs records the edge (u, v) with the given key in both endpoints'
// incidence lists.
func addArcs(lists [][]arc, u, v uint32, key uint64) {
	lists[u] = append(lists[u], arc{key, v})
	lists[v] = append(lists[v], arc{key, u})
}

// removeArcs swap-deletes the edge with the given key from both endpoints'
// incidence lists.
func removeArcs(lists [][]arc, u, v uint32, key uint64) {
	lists[u] = removeArc(lists[u], key)
	lists[v] = removeArc(lists[v], key)
}

// removeArc swap-deletes the first arc carrying key.
func removeArc(list []arc, key uint64) []arc {
	for i, a := range list {
		if a.key == key {
			last := len(list) - 1
			list[i] = list[last]
			return list[:last]
		}
	}
	return list
}

// deleteForestEdge cuts a forest edge and restores minimality by linking
// the minimum-key live edge crossing the cut — the canonical replacement
// under the cut property. Every crossing edge has an endpoint on each
// side, so the smaller side's incidences hold them all: the scan is
// O(live incidences of the smaller side) and allocates nothing.
func (e *Engine) deleteForestEdge(key uint64, st *opStats) error {
	u, v, ok := e.inc.Cut(key)
	if !ok {
		return fmt.Errorf("stream: internal: forest edge %#x not cuttable", key)
	}
	removeArcs(e.forestAdj, u, v, key)
	e.dropLive(key)

	side, sideMark := e.splitSides(u, v)

	// Everything incident to this side stays within the old component, so
	// "not marked ours" means "other side".
	best := ^uint64(0)
	found := false
	for _, x := range side {
		for _, a := range e.adj[x] {
			if a.key < best && e.mark[a.to] != sideMark {
				best, found = a.key, true
			}
		}
	}
	if found {
		ends := e.live[best]
		added, _, hadEvict, err := e.inc.InsertKeyed(ends[0], ends[1], best)
		if err != nil {
			return err
		}
		if !added || hadEvict {
			return fmt.Errorf("stream: internal: replacement %#x did not link cleanly", best)
		}
		addArcs(e.forestAdj, ends[0], ends[1], best)
		st.swaps++
		e.col.Count(obs.CtrStreamSwap, 1)
	}
	return nil
}

// splitSides enumerates the two trees left by a cut with a lockstep BFS
// from each endpoint over the forest adjacency and returns the side that
// exhausted first — the smaller one, fully enumerated and marked with
// sideMark. The lockstep bounds the work on the larger side by the smaller
// side's size.
func (e *Engine) splitSides(u, v uint32) (side []uint32, sideMark uint32) {
	if e.markEpoch > ^uint32(0)-3 {
		clear(e.mark)
		e.markEpoch = 0
	}
	e.markEpoch += 2
	mu, mv := e.markEpoch, e.markEpoch+1

	qa := append(e.queueA[:0], u)
	qb := append(e.queueB[:0], v)
	e.mark[u] = mu
	e.mark[v] = mv
	ia, ib := 0, 0
	for {
		if ia >= len(qa) {
			e.queueA, e.queueB = qa, qb
			return qa, mu
		}
		qa = e.expand(qa, ia, mu)
		ia++
		if ib >= len(qb) {
			e.queueA, e.queueB = qa, qb
			return qb, mv
		}
		qb = e.expand(qb, ib, mv)
		ib++
	}
}

// expand processes queue[i]'s forest neighbors under mark m.
func (e *Engine) expand(queue []uint32, i int, m uint32) []uint32 {
	for _, a := range e.forestAdj[queue[i]] {
		if e.mark[a.to] != m {
			e.mark[a.to] = m
			queue = append(queue, a.to)
		}
	}
	return queue
}

// snapshotLocked writes a compacted snapshot and truncates the WAL.
func (e *Engine) snapshotLocked() error {
	round := int(e.stats.Snapshots)
	if err := writeSnapshotTemp(e.cfg.Dir, encodeSnapshot(e.stateLocked())); err != nil {
		return err
	}
	if e.inj != nil && !e.inj.Alive(FaultNodeSnapTemp, round) {
		// Injected crash before the rename: the temp file is durable but
		// not installed. Recovery discards it and replays the full WAL
		// over the previous snapshot.
		e.dead = true
		return ErrCrashed
	}
	if err := installSnapshotFile(e.cfg.Dir); err != nil {
		return err
	}
	if e.inj != nil && !e.inj.Alive(FaultNodeSnapInstall, round) {
		// Injected crash between install and WAL truncation: recovery must
		// skip the WAL records the new snapshot already covers.
		e.dead = true
		return ErrCrashed
	}
	if err := e.wal.TruncateTo(0); err != nil {
		return err
	}
	e.snapBatch = e.lastBatch
	e.sinceSnap = 0
	e.stats.Snapshots++
	return nil
}

// stateLocked is the engine's compacted state at its high-water mark: the
// live edge set in canonical order with forest-membership flags.
func (e *Engine) stateLocked() snapshotState {
	keys := e.liveKeys()
	st := snapshotState{HighWater: e.lastBatch, N: e.n, Edges: make([]snapEdge, len(keys))}
	for i, k := range keys {
		ends := e.live[k]
		st.Edges[i] = snapEdge{U: ends[0], V: ends[1], W: par.KeyWeight(k), Forest: e.inc.HasEdge(k)}
	}
	return st
}

// liveKeys returns every live edge's key in canonical order.
func (e *Engine) liveKeys() []uint64 {
	keys := make([]uint64, 0, len(e.live))
	for k := range e.live {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Snapshot forces a compaction now (engines without a durability directory
// decline silently).
func (e *Engine) Snapshot() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if e.dead {
		return ErrCrashed
	}
	if e.wal == nil {
		return nil
	}
	return e.snapshotLocked()
}

// Sync flushes the WAL to stable storage regardless of policy.
func (e *Engine) Sync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.wal == nil {
		return nil
	}
	return e.wal.Sync()
}

// Close flushes and closes the WAL. Further operations return ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	if e.wal != nil {
		return e.wal.Close()
	}
	return nil
}

// Vertices returns the stream's fixed vertex count.
func (e *Engine) Vertices() int { return e.n }

// LastBatch returns the high-water applied batch ID.
func (e *Engine) LastBatch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastBatch
}

// Forest returns the maintained forest in canonical order.
func (e *Engine) Forest() []graph.Edge {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.forestBuf = e.inc.ForestEdgesInto(e.forestBuf)
	return append([]graph.Edge(nil), e.forestBuf...)
}

// ForestInto appends the maintained forest to buf[:0] in canonical order.
// With a large enough buffer the serving path allocates nothing.
func (e *Engine) ForestInto(buf []graph.Edge) []graph.Edge {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inc.ForestEdgesInto(buf)
}

// LiveEdges returns every live edge in canonical order (tests' oracle
// input).
func (e *Engine) LiveEdges() []graph.Edge {
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := e.liveKeys()
	out := make([]graph.Edge, len(keys))
	for i, k := range keys {
		ends := e.live[k]
		out[i] = graph.Edge{U: ends[0], V: ends[1], W: par.KeyWeight(k)}
	}
	return out
}

// Stats returns lifetime counters and the current forest shape.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.LiveEdges = len(e.live)
	st.ForestEdges = e.inc.Edges()
	st.Trees = e.inc.Trees()
	st.Weight = e.inc.Weight()
	st.LastBatch = e.lastBatch
	return st
}
