package stream

import (
	"fmt"

	"llpmst/internal/mst"
	"llpmst/internal/obs"
)

// This file is the engine's replication surface. A primary's replication
// layer reads framed WAL records out of the log (WALRecordsAbove) or a
// compacted snapshot (EncodeSnapshot) and ships them; a follower's engine
// ingests them verbatim (ApplyReplicated, InstallSnapshot) so the two logs
// stay byte-identical prefixes of each other — which is what makes
// "promote the follower with the highest high-water mark" lose nothing
// that was ever acknowledged.

// ApplyReplicated applies one framed WAL record shipped by a primary.
// prev is the primary's expectation of this follower's current high-water
// batch ID; a mismatch (unless the record is an already-applied duplicate)
// means the primary's view is stale and the call fails with ErrOutOfOrder
// so catch-up can re-run. The record bytes are appended to the follower's
// WAL verbatim and fsync'd before the new high-water mark is returned —
// an ack from a follower always means "on my disk".
//
// The returned high-water mark is the follower's lastBatch after the call:
// rec.ID for a fresh apply, the unchanged (>= rec.ID) value for a
// duplicate.
func (e *Engine) ApplyReplicated(prev uint64, rec []byte) (uint64, error) {
	b, err := decodeRecord(rec)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, ErrClosed
	}
	if e.dead {
		return 0, ErrCrashed
	}
	if b.ID <= e.lastBatch {
		// Re-shipped after a lost ack: already durable here, ack again.
		e.stats.Duplicates++
		return e.lastBatch, nil
	}
	if prev != e.lastBatch {
		return 0, fmt.Errorf("%w: primary shipped batch %d expecting high-water %d, follower is at %d",
			ErrOutOfOrder, b.ID, prev, e.lastBatch)
	}
	if err := e.validateOps(b.ID, b.Ops); err != nil {
		return 0, err
	}
	if uint64(e.nextID)+uint64(len(b.Ops)) > 1<<32-1 {
		return 0, ErrIDsExhausted
	}
	if e.wal != nil {
		if err := e.wal.Append(rec, obs.TraceRef{}); err != nil {
			return 0, err
		}
		// Ack means durable regardless of the configured sync policy.
		if err := e.wal.Sync(); err != nil {
			return 0, err
		}
	}
	if _, err := e.applyOps(b.Ops); err != nil {
		return 0, err
	}
	e.lastBatch = b.ID
	e.applied++
	e.sinceSnap++
	e.stats.Batches++
	e.col.Count(obs.CtrStreamBatch, 1)
	obs.MarkRound(e.col, int64(e.applied))
	if e.wal != nil && e.cfg.SnapshotEvery > 0 && e.sinceSnap >= e.cfg.SnapshotEvery {
		if err := e.snapshotLocked(); err != nil {
			return 0, fmt.Errorf("stream: snapshot after replicated batch %d: %w", b.ID, err)
		}
	}
	return e.lastBatch, nil
}

// EncodeSnapshot renders the engine's current compacted state (the full
// live edge set plus forest flags at the current high-water mark) to
// snapshot bytes, for shipping to a follower whose log fell behind the
// WAL's retention.
func (e *Engine) EncodeSnapshot() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if e.dead {
		return nil, ErrCrashed
	}
	return encodeSnapshot(e.stateLocked()), nil
}

// InstallSnapshot replaces the follower's entire state with a shipped
// snapshot: validate, install it durably (temp + rename + dir fsync, same
// path a local compaction takes), truncate the WAL, and rebuild the
// in-memory forest from it. Used when the primary compacted its log past
// this follower's high-water mark, or when the follower's log diverged
// (e.g. it holds a record the quorum rolled back).
func (e *Engine) InstallSnapshot(data []byte) (uint64, error) {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, ErrClosed
	}
	if e.dead {
		return 0, ErrCrashed
	}
	if snap.N != e.n {
		return 0, fmt.Errorf("%w: snapshot has %d vertices, engine configured for %d",
			ErrCorruptSnapshot, snap.N, e.n)
	}
	if e.wal != nil {
		if err := writeSnapshotTemp(e.cfg.Dir, data); err != nil {
			return 0, err
		}
		if err := installSnapshotFile(e.cfg.Dir); err != nil {
			return 0, err
		}
		if err := e.wal.TruncateTo(0); err != nil {
			return 0, err
		}
	}
	// Rebuild in-memory state from scratch; identities restart dense.
	e.inc = mst.NewIncremental(e.n)
	e.live = make(map[uint64][2]uint32)
	e.adj = make([][]arc, e.n)
	e.forestAdj = make([][]arc, e.n)
	e.nextID = 0
	if err := e.restoreSnapshot(snap); err != nil {
		// The on-disk snapshot decoded cleanly but is semantically broken
		// (forest flags don't form a forest). Nothing sane to serve.
		e.dead = true
		return 0, err
	}
	e.lastBatch = snap.HighWater
	e.snapBatch = snap.HighWater
	e.sinceSnap = 0
	e.stats.Snapshots++
	return e.lastBatch, nil
}

// WALRecordsAbove returns copies of the framed WAL records with batch IDs
// strictly above after, in log order — the catch-up suffix for a follower
// reporting high-water mark after. compacted reports that the suffix
// cannot be served from the log (the engine is in-memory, the log was
// compacted past after, or after is ahead of this engine's history —
// a diverged follower); the caller must ship a full snapshot instead.
func (e *Engine) WALRecordsAbove(after uint64) (recs [][]byte, compacted bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, false, ErrClosed
	}
	if e.dead {
		return nil, false, ErrCrashed
	}
	if e.wal == nil || after < e.snapBatch || after > e.lastBatch {
		return nil, true, nil
	}
	data, err := e.wal.ReadAll()
	if err != nil {
		return nil, false, err
	}
	_, _ = decodeWAL(data, func(rec []byte, b Batch) error {
		if b.ID > after {
			recs = append(recs, append([]byte(nil), rec...))
		}
		return nil
	})
	return recs, false, nil
}

// SnapshotBatch returns the high-water batch ID of the engine's on-disk
// snapshot (0 when it has never snapshotted). Records at or below it may
// no longer exist in the WAL.
func (e *Engine) SnapshotBatch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapBatch
}
