package registry

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"llpmst/internal/graph"
	"llpmst/internal/mst"
	"llpmst/internal/obs"
	"llpmst/internal/resilient"
)

// Solver answers one minimum-spanning-forest request. *resilient.Runner
// satisfies it; tests substitute counting or failing solvers.
type Solver interface {
	Solve(ctx context.Context, g *graph.CSR) (resilient.Result, error)
}

// Config tunes a Registry. Solver is the only field without a serviceable
// zero value (a Registry built without one still registers graphs; Solve
// returns an error).
type Config struct {
	// Solver executes cache-miss solves (normally the process's shared
	// resilient Runner).
	Solver Solver
	// Workers is the parallelism of PutData's decode and of the deferred
	// CSR build. An explicit count is used as given; <= 0 is auto, sized by
	// the graph's edge count (par.WorkersFor).
	Workers int
	// MemoryBudgetBytes LRU-bounds the summed resident cost of snapshots
	// (CSR bytes plus the single-worker mst.EstimateScratchBytes a solve of
	// the graph needs). 0 = unbounded.
	MemoryBudgetBytes int64
	// SolveTimeout bounds each underlying solve. The solve runs on a
	// context detached from the requesting client, so this — not the
	// client's patience — is what limits shared work. 0 = unbounded.
	SolveTimeout time.Duration
	// DefaultQuota applies to tenants without a TenantQuotas entry; the
	// zero Quota means unlimited.
	DefaultQuota Quota
	// TenantQuotas overrides DefaultQuota per tenant.
	TenantQuotas map[string]Quota
	// Observer receives the registry's counters (registry.put,
	// registry.cache.hit/miss, registry.solve, registry.singleflight.shared,
	// registry.evict, quota.shed). Nil = no observation.
	Observer obs.Collector
	// Clock overrides time.Now for quota tests.
	Clock func() time.Time
}

// GraphInfo is one snapshot's metadata.
type GraphInfo struct {
	ID       string `json:"id"`
	Version  uint64 `json:"version"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	// Bytes is the snapshot's resident-cost estimate charged against the
	// memory budget.
	Bytes int64 `json:"bytes"`
}

// SolveOptions discriminate cache entries beyond (id, version). Key is an
// opaque caller-chosen string: requests whose option sets must not share a
// cached result use different keys.
type SolveOptions struct {
	Key string
}

// SolveResult is a registry solve answer: the resilient result plus where
// it came from.
type SolveResult struct {
	resilient.Result
	GraphID  string
	Version  uint64
	Vertices int
	Edges    int
	// Cached reports the answer came from the completed-result cache.
	Cached bool
	// Shared reports the request joined another request's in-flight solve.
	Shared bool
}

// Stats is a snapshot of a Registry's lifetime counters and residency.
type Stats struct {
	Graphs        int   // resident snapshots
	ResidentBytes int64 // summed snapshot cost
	CachedResults int   // completed results currently cached
	Puts          int64 // registrations (new ids + version bumps)
	Hits          int64 // solves answered from the result cache
	Misses        int64 // solves that launched an underlying solve
	Shared        int64 // solves that joined an in-flight solve
	Solves        int64 // underlying solver calls
	Evictions     int64 // snapshots evicted by the memory bound
	QuotaShed     int64 // solves rejected by per-tenant quotas
}

// entry is one id's resident snapshot.
type entry struct {
	id      string
	version uint64
	g       *graph.CSR
	bytes   int64
	// pins counts in-flight solves reading g; a pinned entry is never
	// evicted.
	pins int
	elem *list.Element
}

// resultKey identifies one cacheable solve.
type resultKey struct {
	id      string
	version uint64
	opts    string
}

// flight is one in-progress underlying solve that any number of requests
// wait on.
type flight struct {
	done            chan struct{}
	res             resilient.Result
	err             error
	vertices, edges int
	// leaderTrace is the trace ID of the request that launched this flight
	// (zero when the leader was un-traced). Waiters that join the flight
	// record it on their own span, so the two traces are joinable.
	leaderTrace obs.TraceID
}

// Registry is the named-graph store. Safe for concurrent use; one Registry
// serves a whole process.
type Registry struct {
	cfg Config
	col obs.Collector
	qts *quotas

	mu      sync.Mutex
	graphs  map[string]*entry
	lru     *list.List // *entry, front = most recently used
	bytes   int64
	results map[resultKey]SolveResult
	flights map[resultKey]*flight

	// wg tracks flight goroutines; Drain waits on it.
	wg sync.WaitGroup

	puts, hits, misses, shared   atomic.Int64
	solves, evictions, quotaShed atomic.Int64
}

// New builds a Registry from cfg.
func New(cfg Config) *Registry {
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	return &Registry{
		cfg:     cfg,
		col:     obs.Or(cfg.Observer),
		qts:     newQuotas(cfg.DefaultQuota, cfg.TenantQuotas, now),
		graphs:  make(map[string]*entry),
		lru:     list.New(),
		results: make(map[resultKey]SolveResult),
		flights: make(map[resultKey]*flight),
	}
}

// idPattern bounds graph ids to URL-path-safe names.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,128}$`)

// ValidateID reports whether id is an acceptable graph name.
func ValidateID(id string) error {
	if !idPattern.MatchString(id) {
		return fmt.Errorf("registry: bad graph id %q (want 1-128 chars of [A-Za-z0-9._-])", id)
	}
	return nil
}

// snapshotBytes prices one resident snapshot: the CSR's own arrays (edge
// records plus both arc directions plus offsets), its per-vertex minimum arc
// keys (cached by the first LLP-Boruvka or LLP-Prim solve and kept for the
// graph's lifetime) and the single-worker scratch estimate a solve of it
// needs — the graph is resident precisely so it can be solved. An uploaded
// graph has no arc arrays until a Prim-family solve first reads them, but
// they are priced from the start: that build can come on any later solve,
// and the memory bound must still hold after it.
func snapshotBytes(g *graph.CSR) int64 {
	n, m := int64(g.NumVertices()), int64(g.NumEdges())
	const edgeRec = 12 // U, V uint32 + W float32
	const arcRec = 12  // target uint32 + weight float32 + eid uint32
	const mweKey = 8   // packed (weight, edge id) uint64
	csr := m*edgeRec + 2*m*arcRec + (n+1)*8 + n*mweKey
	return csr + mst.EstimateScratchBytes(int(n), int(m), 1)
}

// Put registers g under id, superseding any previous version: the returned
// version is strictly greater than every earlier one for this id, and every
// cached result of the previous version is invalidated before Put returns.
// Other ids' cache entries are untouched.
func (r *Registry) Put(id string, g *graph.CSR) (GraphInfo, error) {
	if err := ValidateID(id); err != nil {
		return GraphInfo{}, err
	}
	if g == nil {
		return GraphInfo{}, errors.New("registry: nil graph")
	}
	cost := snapshotBytes(g)
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.graphs[id]
	if e == nil {
		e = &entry{id: id}
		e.elem = r.lru.PushFront(e)
		r.graphs[id] = e
	} else {
		r.bytes -= e.bytes
		r.lru.MoveToFront(e.elem)
		r.invalidateLocked(id)
	}
	e.version++
	e.g = g
	e.bytes = cost
	r.bytes += cost
	r.puts.Add(1)
	r.col.Count(obs.CtrRegistryPut, 1)
	r.evictLocked(e)
	return GraphInfo{ID: id, Version: e.version, Vertices: g.NumVertices(), Edges: g.NumEdges(), Bytes: cost}, nil
}

// PutData decodes data (binary .llpg or DIMACS .gr, sniffed by magic) and
// registers it under id. A decode failure registers nothing: a Get after a
// failed PutData misses exactly as before the call.
func (r *Registry) PutData(id string, data io.Reader) (GraphInfo, error) {
	if err := ValidateID(id); err != nil {
		return GraphInfo{}, err
	}
	g, err := Decode(r.cfg.Workers, data)
	if err != nil {
		return GraphInfo{}, err
	}
	return r.Put(id, g)
}

// Get returns id's current snapshot metadata.
func (r *Registry) Get(id string) (GraphInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.graphs[id]
	if e == nil {
		return GraphInfo{}, &NotFoundError{ID: id}
	}
	return e.info(), nil
}

// Snapshot returns id's resident CSR. version 0 means latest; a non-zero
// version must match the resident one (older snapshots are not retained).
func (r *Registry) Snapshot(id string, version uint64) (*graph.CSR, GraphInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.graphs[id]
	if e == nil {
		return nil, GraphInfo{}, &NotFoundError{ID: id}
	}
	if version != 0 && version != e.version {
		return nil, GraphInfo{}, &NotFoundError{ID: id, Version: version}
	}
	return e.g, e.info(), nil
}

// List returns every resident snapshot's metadata, sorted by id.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GraphInfo, 0, len(r.graphs))
	for _, e := range r.graphs {
		out = append(out, e.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Delete removes id's snapshot and cached results. In-flight solves of it
// finish normally (they hold their own reference) but their results are not
// cached.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.graphs[id]
	if e == nil {
		return &NotFoundError{ID: id}
	}
	r.removeLocked(e)
	return nil
}

func (e *entry) info() GraphInfo {
	return GraphInfo{ID: e.id, Version: e.version, Vertices: e.g.NumVertices(), Edges: e.g.NumEdges(), Bytes: e.bytes}
}

// invalidateLocked drops every cached result for id, any version.
func (r *Registry) invalidateLocked(id string) {
	for k := range r.results {
		if k.id == id {
			delete(r.results, k)
		}
	}
}

// removeLocked unregisters e entirely.
func (r *Registry) removeLocked(e *entry) {
	delete(r.graphs, e.id)
	r.lru.Remove(e.elem)
	r.bytes -= e.bytes
	r.invalidateLocked(e.id)
}

// evictLocked enforces the memory budget: least-recently-used first,
// skipping pinned entries and keep (the snapshot the caller just touched —
// a Put must never evict its own graph, however large). When everything
// else is pinned the registry runs over budget rather than evicting under a
// live solve.
func (r *Registry) evictLocked(keep *entry) {
	if r.cfg.MemoryBudgetBytes <= 0 {
		return
	}
	for r.bytes > r.cfg.MemoryBudgetBytes {
		var victim *entry
		for el := r.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*entry)
			if e != keep && e.pins == 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		r.removeLocked(victim)
		r.evictions.Add(1)
		r.col.Count(obs.CtrRegistryEvict, 1)
	}
}

// Solve answers one request for graph id at the given version (0 = latest)
// on behalf of tenant. The order of gates: quota (typed *QuotaError),
// lookup (typed *NotFoundError), result cache, singleflight join, and only
// then an underlying Solver call. A caller whose ctx expires while waiting
// gets ctx's error; the shared solve keeps running for the other waiters
// and its result is cached.
//
// When ctx carries a trace ref (obs.ContextWithTrace), the gates are
// recorded as a "registry.solve" span annotated cache=hit|miss|shared; a
// waiter that joins another request's flight records the leader's trace ID,
// and a leader's flight runs under a "registry.flight" child span that the
// underlying resilient solve parents to.
func (r *Registry) Solve(ctx context.Context, tenant, id string, version uint64, opts SolveOptions) (SolveResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := obs.TraceRefFromContext(ctx).Start("registry.solve")
	if sp.Valid() {
		sp.SetAttr("graph", id)
		if tenant != "" {
			sp.SetAttr("tenant", tenant)
		}
		// Children (the flight, and through it the resilient pipeline) hang
		// below this span, not the HTTP root.
		ctx = obs.ContextWithTrace(ctx, sp.Ref())
	}
	res, err := r.solveTraced(ctx, sp, tenant, id, version, opts)
	if sp.Valid() {
		switch {
		case err == nil:
			switch {
			case res.Cached:
				sp.SetAttr("cache", "hit")
			case res.Shared:
				sp.SetAttr("cache", "shared")
			default:
				sp.SetAttr("cache", "miss")
			}
			sp.SetInt("version", int64(res.Version))
		case errors.As(err, new(*QuotaError)):
			sp.SetAttr("outcome", "quota-shed")
		case errors.As(err, new(*NotFoundError)):
			sp.SetAttr("outcome", "not-found")
		case ctx.Err() != nil && errors.Is(err, ctx.Err()):
			sp.SetAttr("outcome", "caller-gone")
		default:
			sp.SetErrorString(err.Error())
		}
	}
	sp.End()
	return res, err
}

func (r *Registry) solveTraced(ctx context.Context, sp obs.Span, tenant, id string, version uint64, opts SolveOptions) (SolveResult, error) {
	if retry, ok := r.qts.take(tenant); !ok {
		r.quotaShed.Add(1)
		r.col.Count(obs.CtrQuotaShed, 1)
		return SolveResult{}, &QuotaError{Tenant: tenant, RetryAfter: retry}
	}

	r.mu.Lock()
	e := r.graphs[id]
	if e == nil {
		r.mu.Unlock()
		return SolveResult{}, &NotFoundError{ID: id}
	}
	if version == 0 {
		version = e.version
	}
	if version != e.version {
		r.mu.Unlock()
		return SolveResult{}, &NotFoundError{ID: id, Version: version}
	}
	r.lru.MoveToFront(e.elem)
	k := resultKey{id: id, version: version, opts: opts.Key}
	if cached, ok := r.results[k]; ok {
		r.hits.Add(1)
		r.col.Count(obs.CtrRegistryHit, 1)
		cached.Cached = true
		r.mu.Unlock()
		return cached, nil
	}
	f := r.flights[k]
	joined := f != nil
	if joined {
		r.shared.Add(1)
		r.col.Count(obs.CtrRegistryShared, 1)
		// Link this waiter's span to the leader's trace so a slow shared
		// solve is attributable from either side.
		if sp.Valid() && !f.leaderTrace.IsZero() {
			sp.SetAttr("leader_trace", f.leaderTrace.String())
		}
	} else {
		if r.cfg.Solver == nil {
			r.mu.Unlock()
			return SolveResult{}, errors.New("registry: no solver configured")
		}
		f = &flight{done: make(chan struct{}), vertices: e.g.NumVertices(), edges: e.g.NumEdges(), leaderTrace: sp.TraceID()}
		r.flights[k] = f
		e.pins++
		r.misses.Add(1)
		r.col.Count(obs.CtrRegistryMiss, 1)
		r.solves.Add(1)
		r.col.Count(obs.CtrRegistrySolve, 1)
		g := e.g
		r.wg.Add(1)
		go r.runFlight(ctx, g, e, k, f)
	}
	r.mu.Unlock()

	select {
	case <-f.done:
		if f.err != nil {
			return SolveResult{}, f.err
		}
		return SolveResult{
			Result: f.res, GraphID: id, Version: version,
			Vertices: f.vertices, Edges: f.edges, Shared: joined,
		}, nil
	case <-ctx.Done():
		return SolveResult{}, ctx.Err()
	}
}

// runFlight executes one underlying solve on a context detached from the
// triggering request (values flow, cancellation does not), bounded only by
// the registry's SolveTimeout, then publishes the outcome to every waiter
// and into the result cache — unless the snapshot was superseded or
// deleted while the solve ran, in which case the stale result is served to
// the current waiters but not cached.
func (r *Registry) runFlight(ctx context.Context, g *graph.CSR, e *entry, k resultKey, f *flight) {
	defer r.wg.Done()
	sctx := context.WithoutCancel(ctx)
	if r.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(sctx, r.cfg.SolveTimeout)
		defer cancel()
	}
	// WithoutCancel preserved values, so the leader's trace ref (and any
	// per-request collector) flows into the detached solve.
	fsp := obs.TraceRefFromContext(sctx).Start("registry.flight")
	if fsp.Valid() {
		fsp.SetAttr("graph", k.id)
		sctx = obs.ContextWithTrace(sctx, fsp.Ref())
	}
	res, err := r.cfg.Solver.Solve(sctx, g)
	if err != nil && !errors.Is(err, resilient.ErrOverloaded) {
		fsp.SetErrorString(err.Error())
	}
	fsp.End()
	f.res, f.err = res, err

	r.mu.Lock()
	e.pins--
	delete(r.flights, k)
	if err == nil {
		if cur := r.graphs[k.id]; cur == e && e.version == k.version {
			r.results[k] = SolveResult{
				Result: res, GraphID: k.id, Version: k.version,
				Vertices: f.vertices, Edges: f.edges,
			}
		}
	}
	// The pin just dropped; if a Put during the solve left us over budget,
	// settle it now.
	r.evictLocked(nil)
	r.mu.Unlock()
	close(f.done)
}

// Drain blocks until every in-flight solve goroutine has exited, or until
// ctx expires.
func (r *Registry) Drain(ctx context.Context) error {
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

// Stats returns a snapshot of the registry's counters and residency.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	graphs, bytes, cached := len(r.graphs), r.bytes, len(r.results)
	r.mu.Unlock()
	return Stats{
		Graphs:        graphs,
		ResidentBytes: bytes,
		CachedResults: cached,
		Puts:          r.puts.Load(),
		Hits:          r.hits.Load(),
		Misses:        r.misses.Load(),
		Shared:        r.shared.Load(),
		Solves:        r.solves.Load(),
		Evictions:     r.evictions.Load(),
		QuotaShed:     r.quotaShed.Load(),
	}
}
