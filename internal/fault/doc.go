// Package fault provides seeded, deterministic fault injection. A Plan
// describes what can go wrong — per-arc drop/duplicate/delay probabilities
// and crash schedules (crash-stop and crash-restart) — and an Injector
// turns the plan into a reproducible stream of fault decisions: the same
// seed and the same sequence of queries always yield the same faults, which
// is what makes chaos runs replayable.
//
// # Division of labor
//
// The injector is intentionally passive: it only answers questions ("should
// this transmission drop?", "is this node alive at round r?"). Its callers
// own the consequences:
//
//   - the stream engine and the replication primary read crash schedules
//     (Alive) to kill themselves at chosen points of a batch;
//   - Link wraps an Injector as one seeded lossy replication connection
//     (the replica loopback);
//   - the resilient runner's chaos mode reads each portfolio leg's arc as
//     "panic" (Drop) or "stall" (Delay).
//
// The injector is not safe for concurrent use; Link and the resilient
// runner serialize their queries, which also keeps the decision stream
// deterministic.
//
// # Public surface
//
// The root package re-exports Plan, Probs, and Crash as llpmst.FaultPlan,
// llpmst.FaultProbs, and llpmst.FaultCrash for use with
// llpmst.ResilientChaos.
package fault
