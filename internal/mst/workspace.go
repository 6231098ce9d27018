package mst

import (
	"sync"
	"sync/atomic"

	"llpmst/internal/llp"
	"llpmst/internal/par"
	"llpmst/internal/pq"
	"llpmst/internal/sched"
	"llpmst/internal/unionfind"
)

// Workspace is an arena of reusable scratch buffers for the parallel MSF
// algorithms. Every call to LLPPrim, LLPPrimParallel, LLPPrimAsync,
// ParallelBoruvka, LLPBoruvka, or SemiringBoruvka needs O(n+m) scratch
// state (tentative-key
// arrays, fixed flags, contraction ping-pong edge buffers, heaps, work
// bags); without a workspace that state is allocated per call and becomes
// garbage at return — exactly the overhead a server answering repeated MSF
// queries cannot afford. Pass a Workspace through Options.Workspace and the
// algorithms draw all of it from here instead: buffers grow lazily to the
// largest (n, m, workers) seen and are then reused as-is, so
// second-and-later calls allocate O(1) memory (the returned Forest and its
// exact-size edge-id slice are the only per-call allocations).
//
// A Workspace is NOT safe for concurrent use: it is one run's scratch
// state. Concurrent callers either keep one Workspace per goroutine or
// leave Options.Workspace nil, in which case the algorithms draw from an
// internal sync.Pool — per-P reuse with no coordination, the right default
// for concurrent servers. Sharing one Workspace across two simultaneous
// runs is detected by a busy flag and panics rather than corrupting both
// runs' state.
//
// The returned Forest never aliases workspace memory; it remains valid
// after the workspace is reused or dropped.
//
// Under `go test -race`, acquiring a workspace poisons its buffers with a
// junk pattern first, so an algorithm that wrongly assumes make()-zeroed
// scratch reads garbage and fails loudly in the race suite instead of
// working by accident on a fresh arena.
type Workspace struct {
	busy atomic.Bool

	// Per-vertex scratch (sized to n).
	keys   []uint64 // tentative packed keys: dist / best
	flagsA []uint32 // atomic 0/1 or labels: fixed / comp / LLP-Boruvka lab
	flagsB []uint32 // atomic 0/1: inQ
	vertsA []uint32 // component labels: G (LLP-Boruvka parents)
	vertsB []uint32 // relabel targets: newID
	vertsC []uint32 // star roots of the current contraction round
	boolsA []bool   // sequential fixed flags
	boolsB []bool   // sequential inQ flags
	ids    []uint32 // chosen forest edge ids (≤ n-1)
	bag    []uint32 // bag R / frontier / scheduler seed
	stage  []uint32 // staging set Q
	picks  []uint32 // per-round collected winners / roots
	recs   []waveRec
	sample []uint64 // LLP-Boruvka's pivot sample (pivotSample keys)

	// Per-edge scratch (sized to m).
	cedges []cedge  // contracted edge list
	cspare []cedge  // contraction ping-pong target
	eIDs   []uint32 // live edge ids / canonical-id -> row-entry index
	eSpare []uint32 // live-edge compaction ping-pong target
	eFlags []uint32 // atomic 0/1 per edge: inT

	// Semiring (sparse-matrix) scratch: the per-round row structure of the
	// contracted adjacency matrix (sized to n+1 and 2m).
	rowOff  []int64  // row offsets into arcKeys (CSR-style, nv+1 live)
	arcKeys []uint64 // row-major packed (weight, id) matrix entries

	// Per-worker cache-line-padded counter block (sized to workers).
	counters []int64

	// Reusable sub-structures.
	heap     *pq.LazyHeap
	jump     *llp.PointerJump
	uf       *unionfind.Concurrent
	asyncBag sched.Bag[uint32]
}

// NewWorkspace returns an empty Workspace. Buffers are grown on first use;
// the zero value is equally valid.
func NewWorkspace() *Workspace { return &Workspace{} }

// EstimateScratchBytes returns the steady-state scratch footprint, in
// bytes, that one run of the parallel algorithms on an (n vertices, m
// edges, workers goroutines) input draws from its Workspace. The estimate
// is computed from the arena's own buffer inventory above — per-vertex
// (keys, flag words, label arrays, bags), per-edge (contraction ping-pong
// cedge pairs, live-id compaction pairs, edge flags), per-worker padded
// counters, and the reusable heap/union-find sub-structures — so it tracks
// the real allocation behavior rather than a hand-tuned constant.
// Admission controllers use it to decide whether a request's scratch fits a
// memory budget before any of it is allocated.
func EstimateScratchBytes(n, m, workers int) int64 {
	if n < 0 {
		n = 0
	}
	if m < 0 {
		m = 0
	}
	if workers < 1 {
		workers = 1
	}
	const (
		cedgeBytes   = 16 // u, v uint32 + key uint64
		waveRecBytes = 8  // v, eid uint32
		sampleBytes  = 8 * pivotSample
	)
	perVertex := int64(8 + // keys
		4*5 + // flagsA, flagsB, vertsA, vertsB, vertsC
		2 + // boolsA, boolsB
		4*4 + // ids, bag, stage, picks
		waveRecBytes + // recs (one wave record per fixed vertex)
		8 + // union-find parent+rank words
		8 + // pointer-jump shadow state
		8) // semiring row offsets
	perEdge := int64(2*cedgeBytes + // cedges + cspare
		2*4 + // eIDs + eSpare
		4 + // eFlags
		2*8 + // semiring matrix entries (one per arc, two per edge)
		16) // lazy-heap entries (worst case: every arc relaxation staged)
	perWorker := int64(8*par.PadStride) + 512 // counters + scheduler deque headers
	return sampleBytes + int64(n)*perVertex + int64(m)*perEdge + int64(workers)*perWorker
}

// workspacePool backs the nil-Options.Workspace default: algorithms borrow
// a Workspace for the duration of one run and return it, so a server
// hammering the package concurrently gets per-P buffer reuse for free.
var workspacePool = sync.Pool{New: func() any { return new(Workspace) }}

// workspace resolves the run's Workspace: the caller's (acquired, panics on
// concurrent sharing) or a pooled one. release must be called exactly once
// when the run no longer touches the buffers — after every parallel worker
// has joined, which the par/sched runtimes guarantee even on panic.
func (o Options) workspace() (ws *Workspace, release func()) {
	if o.Workspace != nil {
		ws = o.Workspace
		ws.acquire()
		return ws, ws.release
	}
	ws = workspacePool.Get().(*Workspace)
	ws.acquire()
	return ws, func() {
		ws.release()
		workspacePool.Put(ws)
	}
}

// acquire marks the workspace busy (panicking if it already is) and, in
// race-enabled builds, poisons all current buffers.
func (w *Workspace) acquire() {
	if !w.busy.CompareAndSwap(false, true) {
		panic("mst: Workspace used by two runs concurrently; use one Workspace per goroutine")
	}
	if raceEnabled {
		w.poison()
	}
}

func (w *Workspace) release() {
	if !w.busy.CompareAndSwap(true, false) {
		panic("mst: Workspace released twice")
	}
}

// poison overwrites every buffer with a recognizable junk pattern. Only
// called under the race detector (see workspace_race.go): correctness must
// come from explicit initialization, never from reuse of a previous run's
// state or from make() zeroing.
func (w *Workspace) poison() {
	const p64 = 0xDEADBEEFDEADBEEF
	const p32 = uint32(0xDEADBEEF)
	for _, s := range [][]uint64{w.keys, w.arcKeys, w.sample} {
		for i := range s {
			s[i] = p64
		}
	}
	for _, s := range [][]uint32{w.flagsA, w.flagsB, w.vertsA, w.vertsB, w.vertsC, w.ids, w.bag, w.stage, w.picks, w.eIDs, w.eSpare, w.eFlags} {
		for i := range s {
			s[i] = p32
		}
	}
	for i := range w.boolsA {
		w.boolsA[i] = true
	}
	for i := range w.boolsB {
		w.boolsB[i] = true
	}
	for i := range w.cedges {
		w.cedges[i] = cedge{u: p32, v: p32, key: p64}
	}
	for i := range w.cspare {
		w.cspare[i] = cedge{u: p32, v: p32, key: p64}
	}
	for i := range w.counters {
		w.counters[i] = -1
	}
	for i := range w.rowOff {
		w.rowOff[i] = -0x5EED
	}
	for i := range w.recs {
		w.recs[i] = waveRec{v: p32, eid: p32}
	}
}

// grow returns (*s)[:n], reallocating only when capacity is insufficient.
// Contents are unspecified; callers initialize what they read.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// The acquire methods below hand out the named buffer at the requested
// size. They are trivially cheap after the first (largest) run.

func (w *Workspace) keysBuf(n int) []uint64   { return grow(&w.keys, n) }
func (w *Workspace) flagsABuf(n int) []uint32 { return grow(&w.flagsA, n) }
func (w *Workspace) flagsBBuf(n int) []uint32 { return grow(&w.flagsB, n) }
func (w *Workspace) vertsABuf(n int) []uint32 { return grow(&w.vertsA, n) }
func (w *Workspace) vertsBBuf(n int) []uint32 { return grow(&w.vertsB, n) }
func (w *Workspace) vertsCBuf(n int) []uint32 { return grow(&w.vertsC, n) }
func (w *Workspace) boolsABuf(n int) []bool   { return grow(&w.boolsA, n) }
func (w *Workspace) boolsBBuf(n int) []bool   { return grow(&w.boolsB, n) }
func (w *Workspace) idsBuf(n int) []uint32    { return grow(&w.ids, n) }
func (w *Workspace) bagBuf(n int) []uint32    { return grow(&w.bag, n) }
func (w *Workspace) stageBuf(n int) []uint32  { return grow(&w.stage, n) }
func (w *Workspace) cedgesBuf(m int) []cedge  { return grow(&w.cedges, m) }
func (w *Workspace) cspareBuf(m int) []cedge  { return grow(&w.cspare, m) }
func (w *Workspace) eIDsBuf(m int) []uint32   { return grow(&w.eIDs, m) }
func (w *Workspace) eSpareBuf(m int) []uint32 { return grow(&w.eSpare, m) }
func (w *Workspace) eFlagsBuf(m int) []uint32 { return grow(&w.eFlags, m) }
func (w *Workspace) sampleBuf() []uint64      { return grow(&w.sample, pivotSample) }

// rowOffBuf returns the semiring backend's row-offset table (n+1 entries
// for an n-row matrix); arcKeysBuf returns its row-major entry array (two
// entries per undirected edge).
func (w *Workspace) rowOffBuf(n int) []int64    { return grow(&w.rowOff, n) }
func (w *Workspace) arcKeysBuf(m2 int) []uint64 { return grow(&w.arcKeys, m2) }

// countersBuf returns the padded per-worker counter block for p workers
// (par.PadStride int64s per worker — one cache line each).
func (w *Workspace) countersBuf(p int) []int64 { return grow(&w.counters, p*par.PadStride) }

// heapBuf returns the reusable lazy heap, emptied.
func (w *Workspace) heapBuf() *pq.LazyHeap {
	if w.heap == nil {
		w.heap = pq.NewLazyHeap(64)
	}
	w.heap.Reset()
	return w.heap
}

// jumpBuf returns the reusable pointer-jumping LLP instance over parent.
func (w *Workspace) jumpBuf(parent []uint32) *llp.PointerJump {
	if w.jump == nil {
		w.jump = llp.NewPointerJump(parent)
		return w.jump
	}
	w.jump.Reset(parent)
	return w.jump
}

// asyncBagBuf returns the reusable work bag for the sched-driven variant.
func (w *Workspace) asyncBagBuf() *sched.Bag[uint32] { return &w.asyncBag }

// ufBuf returns the reusable concurrent union-find, reset to n singletons.
func (w *Workspace) ufBuf(n int) *unionfind.Concurrent {
	if w.uf == nil {
		w.uf = unionfind.NewConcurrent(n)
		return w.uf
	}
	w.uf.Reset(n)
	return w.uf
}
