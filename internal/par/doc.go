// Package par provides the shared-memory parallel runtime used by every
// algorithm in this repository. It is the Go substitute for the Galois and
// GBBS C++ runtimes the paper builds on: dynamically load-balanced parallel
// loops, parallel prefix sums, parallel sorting, parallel reductions,
// workspace-friendly compaction, and atomic-minimum updates on packed
// (weight, id) keys.
//
// # Worker counts and grain sizes
//
// All entry points take an explicit worker count p. p <= 0 means
// runtime.GOMAXPROCS(0). Every function degrades to a plain sequential loop
// when p == 1 or when the input is below the grain size, so single-threaded
// callers pay no synchronization cost — and, on the sequential paths, no
// allocations: the fast paths run the body inline instead of spawning
// wrapped goroutine closures. This property is load-bearing for the
// zero-allocation workspace contract of internal/mst (see
// mst.Options.Workspace) and is pinned by allocation-count tests.
//
// Dynamically scheduled loops (For, ForEach) hand out chunks of grain
// indices through a shared atomic counter, which load-balances irregular
// work such as graph traversals; DefaultGrain amortizes that atomic over a
// few microseconds of work.
//
// The grain sizes one chunk; WorkersFor sizes the team. Callers whose
// worker count may be "auto" (the upload and solve path: graph loaders,
// MinArcKeys, FromEdges, the mst backends, the resilient runner) resolve it
// once from the input with WorkersFor: one worker per parallelShare (2^19)
// elements, clamped to [1, GOMAXPROCS]. A second worker starts each phase
// late and pays cross-core misses in the loops it shares, which smaller
// inputs do not earn back. An explicit count is always used as given.
//
// # Families of helpers
//
//   - Loops: For (range chunks), ForEach (per index), Do (fixed thunks).
//   - Reductions: SumInt64, MaxInt64, ReduceInt64, CountTrue, Any.
//   - Scans and compaction: ExclusiveScan, CountingScan, Pack, PackIndex,
//     and the *Into variants (FilterInto, FilterMapInto, PackIndexInto,
//     ForCollectInto) that write into caller-owned buffers with
//     cache-line-padded per-worker counter blocks (PadBlock, PadStride) so
//     steady-state callers allocate nothing. FilterMapInto and
//     PackIndexInto call their transform once per element (PackIndexInto
//     once per index, for callers that read their input by index), and
//     need a dst that holds the whole input; closing the gaps between the
//     workers' survivor runs is a serial copy on the calling goroutine.
//   - Sorting: SortUint64, SortFunc.
//   - Atomic keys: PackKey/UnpackKey pack a float32 weight and an edge id
//     into one totally ordered uint64; WriteMin/WriteMax/WriteMinU32 are the
//     lock-free priority-update primitives of GBBS-style parallel Boruvka.
//   - Cancellation: Canceller turns a context.Context into a strided,
//     amortized poll usable from inner loops (see cancel.go).
//   - Panic containment: PanicBox collects the first worker panic of a
//     parallel region; every goroutine the package spawns recovers, joins,
//     and re-raises a single typed *PanicError (see panic.go).
package par
