// Package stream maintains a minimum spanning forest under a long-lived
// stream of edge insert/delete batches, durably.
//
// The Engine converts the repo's solve-from-scratch algorithms into a
// serve-a-living-graph service: inserts go through the cycle-property
// incremental structure (mst.Incremental), and deletes of forest edges cut
// the tree and relink across the cut with the minimum crossing edge (the
// classic cut property, under the same packed (weight, id) canonical order
// every batch algorithm uses). A lockstep BFS from both endpoints of the
// cut enumerates the smaller side, and every crossing edge has an endpoint
// there, so scanning that side's live incidences always finds the exact
// replacement. A delete therefore costs O(live incidences of the smaller
// side), with no fallback and no allocation: each incidence stores its far
// endpoint, so the scan never consults the live-edge map. After every
// batch the maintained forest is exactly the canonical MSF of the live edge
// set; the tests cross-check against a from-scratch Kruskal oracle after
// every batch.
//
// Durability is write-ahead logging plus compacted snapshots:
//
//   - Every applied batch is first committed to a checksummed,
//     length-prefixed WAL record (CRC32-C over the payload). The fsync
//     policy is configurable: SyncAlways survives machine crashes,
//     SyncInterval bounds loss to one flush interval, SyncOff leaves
//     flushing to the OS (process kills still lose nothing).
//   - Every SnapshotEvery batches the engine writes a compacted snapshot —
//     the live edge set in canonical order with forest-membership flags and
//     the high-water batch ID — via temp file + rename + directory fsync,
//     then truncates the WAL.
//   - Open recovers by loading the latest valid snapshot and replaying the
//     WAL records above the snapshot's high-water mark, stopping cleanly at
//     the first torn or corrupt record, truncating the broken tail, and
//     reporting everything in a typed *RecoveryReport.
//
// Batch IDs are client-assigned and strictly monotonic per stream, which
// makes retries idempotent: a batch at or below the engine's high-water
// mark is acknowledged as a duplicate without being re-applied.
//
// Crash-stop schedules from internal/fault inject deterministic failures
// for tests: node 0 crashing at round r tears the WAL append of the r-th
// batch mid-record; node 1 crashing at round r kills the engine after the
// append but before the acknowledgement (the batch is durable but the
// client never heard so).
package stream
