package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"llpmst/internal/obs"
	"llpmst/internal/registry"
	"llpmst/internal/replica"
	"llpmst/internal/stream"
)

// streamConfig is the -stream-* flag bundle: where stream WALs and snapshots
// live, how eagerly they fsync, and how often they compact.
type streamConfig struct {
	dir           string
	sync          stream.SyncPolicy
	syncInterval  time.Duration
	snapshotEvery int
	// recoverHold artificially stretches startup recovery so drills can
	// observe the 503 "recovering" health window.
	recoverHold time.Duration
	observer    obs.Collector
	// replica is this server's replication role; see replicaConfig.
	replica replicaConfig
}

// streamManager owns every live stream engine. Until startup recovery has
// replayed all on-disk streams, ready is false and stream traffic (plus
// /healthz) answers 503 — a restarted server never serves a forest that is
// still missing acknowledged batches.
type streamManager struct {
	cfg     streamConfig
	mu      sync.Mutex
	engines map[string]*stream.Engine
	reports map[string]*stream.RecoveryReport
	ready   atomic.Bool

	// Replication role state: a primary server keeps one replica.Primary
	// per stream (ack gate + follower maintenance loops), a follower
	// server one replica.Acceptor per stream (the protocol's ingest side).
	primaries map[string]*replica.Primary
	acceptors map[string]*replica.Acceptor
	// replicaClient is shared by every HTTPDialer; per-call deadlines come
	// from the primary's AckTimeout contexts.
	replicaClient *http.Client
	// logf receives follower state-change lines; never nil.
	logf func(format string, args ...any)
}

// streamMeta is the tiny per-stream sidecar that records what the WAL alone
// cannot: the vertex-set size the stream was created with.
type streamMeta struct {
	Vertices int `json:"vertices"`
}

func newStreamManager(cfg streamConfig) *streamManager {
	return &streamManager{
		cfg:           cfg,
		engines:       make(map[string]*stream.Engine),
		reports:       make(map[string]*stream.RecoveryReport),
		primaries:     make(map[string]*replica.Primary),
		acceptors:     make(map[string]*replica.Acceptor),
		replicaClient: &http.Client{},
		logf:          func(string, ...any) {},
	}
}

// recoverAll replays every persisted stream and then opens the gate. It runs
// once, at startup, on its own goroutine; errors disable the stream rather
// than the server.
func (m *streamManager) recoverAll(logf func(format string, args ...any)) {
	if m.cfg.dir != "" {
		entries, err := os.ReadDir(m.cfg.dir)
		if err != nil && !os.IsNotExist(err) {
			logf("stream recovery: reading %s: %v", m.cfg.dir, err)
		}
		for _, ent := range entries {
			if !ent.IsDir() {
				continue
			}
			id := ent.Name()
			if err := registry.ValidateID(id); err != nil {
				logf("stream recovery: skipping %q: %v", id, err)
				continue
			}
			meta, err := readStreamMeta(filepath.Join(m.cfg.dir, id))
			if err != nil {
				logf("stream recovery: skipping %q: %v", id, err)
				continue
			}
			e, rep, err := stream.Open(m.engineConfig(id, meta.Vertices))
			if err != nil {
				logf("stream recovery: %q: %v", id, err)
				continue
			}
			m.mu.Lock()
			m.engines[id] = e
			m.reports[id] = rep
			aerr := m.attachReplication(id, e)
			m.mu.Unlock()
			if aerr != nil {
				logf("stream recovery: %q: replication: %v", id, aerr)
			}
			logf("stream %q recovered: last_batch=%d replayed=%d torn=%v", id, rep.LastBatch, rep.ReplayedBatches, rep.Torn)
		}
	}
	if m.cfg.recoverHold > 0 {
		time.Sleep(m.cfg.recoverHold)
	}
	m.ready.Store(true)
}

func (m *streamManager) engineConfig(id string, vertices int) stream.Config {
	cfg := stream.Config{
		Vertices:      vertices,
		Sync:          m.cfg.sync,
		SyncInterval:  m.cfg.syncInterval,
		SnapshotEvery: m.cfg.snapshotEvery,
		Observer:      m.cfg.observer,
	}
	if m.cfg.dir != "" {
		cfg.Dir = filepath.Join(m.cfg.dir, id)
	}
	return cfg
}

func readStreamMeta(dir string) (streamMeta, error) {
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return streamMeta{}, err
	}
	var meta streamMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return streamMeta{}, fmt.Errorf("meta.json: %w", err)
	}
	if meta.Vertices <= 0 {
		return streamMeta{}, fmt.Errorf("meta.json: vertex count %d must be positive", meta.Vertices)
	}
	return meta, nil
}

// create opens (or idempotently re-opens) a stream. created reports whether a
// new stream came into being; an existing stream with a different vertex
// count is a conflict.
func (m *streamManager) create(id string, vertices int) (e *stream.Engine, created bool, err error) {
	if vertices <= 0 {
		return nil, false, fmt.Errorf("vertex count %d must be positive", vertices)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.engines[id]; ok {
		if e.Vertices() != vertices {
			return nil, false, errStreamConflict{id: id, have: e.Vertices(), want: vertices}
		}
		return e, false, nil
	}
	if m.cfg.dir != "" {
		sdir := filepath.Join(m.cfg.dir, id)
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, false, err
		}
		meta, _ := json.Marshal(streamMeta{Vertices: vertices})
		if err := os.WriteFile(filepath.Join(sdir, "meta.json"), meta, 0o644); err != nil {
			return nil, false, err
		}
	}
	e, rep, err := stream.Open(m.engineConfig(id, vertices))
	if err != nil {
		return nil, false, err
	}
	if err := m.attachReplication(id, e); err != nil {
		e.Close()
		return nil, false, err
	}
	m.engines[id] = e
	m.reports[id] = rep
	return e, true, nil
}

type errStreamConflict struct {
	id         string
	have, want int
}

func (e errStreamConflict) Error() string {
	return fmt.Sprintf("stream %q has %d vertices, not %d", e.id, e.have, e.want)
}

var errStreamNotFound = errors.New("stream not found")

func (m *streamManager) get(id string) (*stream.Engine, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.engines[id]; ok {
		return e, nil
	}
	return nil, errStreamNotFound
}

// remove closes a stream and deletes its on-disk state.
func (m *streamManager) remove(id string) error {
	m.mu.Lock()
	e, ok := m.engines[id]
	p := m.primaries[id]
	delete(m.engines, id)
	delete(m.reports, id)
	delete(m.primaries, id)
	delete(m.acceptors, id)
	m.mu.Unlock()
	if !ok {
		return errStreamNotFound
	}
	// The replication layer detaches first so the engine's final close
	// does not race a gate call or a catch-up ship.
	if p != nil {
		p.Close()
	}
	if err := e.Close(); err != nil {
		return err
	}
	if m.cfg.dir != "" {
		return os.RemoveAll(filepath.Join(m.cfg.dir, id))
	}
	return nil
}

// closeAll flushes and closes every engine — the final stage of a graceful
// drain, after HTTP traffic has stopped.
func (m *streamManager) closeAll() error {
	m.mu.Lock()
	engines := make([]*stream.Engine, 0, len(m.engines))
	for _, e := range m.engines {
		engines = append(engines, e)
	}
	primaries := make([]*replica.Primary, 0, len(m.primaries))
	for _, p := range m.primaries {
		primaries = append(primaries, p)
	}
	m.engines = make(map[string]*stream.Engine)
	m.primaries = make(map[string]*replica.Primary)
	m.acceptors = make(map[string]*replica.Acceptor)
	m.mu.Unlock()
	var first error
	for _, p := range primaries {
		p.Close()
	}
	for _, e := range engines {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m *streamManager) ids() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.engines))
	for id := range m.engines {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// --- HTTP handlers ---

// rejectNotReady gates stream traffic on recovery: a 503 with Retry-After
// tells clients (and the load balancer) to come back when replay is done.
func (s *server) rejectNotReady(w http.ResponseWriter) bool {
	if s.streams.ready.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	http.Error(w, "recovering", http.StatusServiceUnavailable)
	return true
}

// streamInfoReply describes one stream: current shape plus how its last
// recovery went.
type streamInfoReply struct {
	ID          string  `json:"id"`
	Vertices    int     `json:"vertices"`
	LiveEdges   int     `json:"live_edges"`
	ForestEdges int     `json:"forest_edges"`
	Trees       int     `json:"trees"`
	Weight      float64 `json:"weight"`
	LastBatch   uint64  `json:"last_batch"`
	Batches     uint64  `json:"batches"`
	Duplicates  uint64  `json:"duplicates"`
	Swaps       uint64  `json:"swaps"`
	Snapshots   uint64  `json:"snapshots"`

	Recovery    *stream.RecoveryReport `json:"recovery,omitempty"`
	Replication *replicationInfo       `json:"replication,omitempty"`
}

func (s *server) streamInfo(id string, e *stream.Engine) streamInfoReply {
	st := e.Stats()
	s.streams.mu.Lock()
	rep := s.streams.reports[id]
	s.streams.mu.Unlock()
	return streamInfoReply{
		ID:          id,
		Vertices:    e.Vertices(),
		LiveEdges:   st.LiveEdges,
		ForestEdges: st.ForestEdges,
		Trees:       st.Trees,
		Weight:      st.Weight,
		LastBatch:   st.LastBatch,
		Batches:     st.Batches,
		Duplicates:  st.Duplicates,
		Swaps:       st.Swaps,
		Snapshots:   st.Snapshots,
		Recovery:    rep,
		Replication: s.streams.replicationInfo(id),
	}
}

// handlePutStream creates a stream (201), idempotently acknowledges an
// existing identical one (200), or rejects a shape mismatch (409).
func (s *server) handlePutStream(w http.ResponseWriter, req *http.Request) {
	if s.rejectDraining(w) || s.rejectNotReady(w) {
		return
	}
	id := req.PathValue("id")
	if err := registry.ValidateID(id); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var body struct {
		Vertices int `json:"vertices"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(nil, req.Body, 1<<20)).Decode(&body); err != nil {
		http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
		return
	}
	e, created, err := s.streams.create(id, body.Vertices)
	if err != nil {
		status := http.StatusBadRequest
		var conflict errStreamConflict
		if errors.As(err, &conflict) {
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if created {
		w.WriteHeader(http.StatusCreated)
	}
	_ = json.NewEncoder(w).Encode(s.streamInfo(id, e))
}

// updateRequest is the POST /streams/{id}/update body. Batch IDs are client
// assigned and strictly increasing; retrying an acknowledged ID is safe and
// answers duplicate=true without re-applying.
type updateRequest struct {
	Batch uint64      `json:"batch"`
	Ops   []stream.Op `json:"ops"`
}

func (s *server) handleStreamUpdate(w http.ResponseWriter, req *http.Request) {
	if s.rejectDraining(w) || s.rejectNotReady(w) || s.rejectFollower(w, req.PathValue("id")) {
		return
	}
	e, err := s.streams.get(req.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	var body updateRequest
	if err := json.NewDecoder(http.MaxBytesReader(nil, req.Body, s.cfg.maxBody)).Decode(&body); err != nil {
		http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
		return
	}
	res, err := e.ApplyCtx(req.Context(), stream.Batch{ID: body.Batch, Ops: body.Ops})
	if err != nil {
		writeStreamError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(res)
}

// writeStreamError maps engine errors onto HTTP statuses: malformed batches
// 400, a degraded replication quorum 503 with Retry-After (the batch is
// durable nowhere and the same ID may be retried once quorum recovers), a
// closed or crashed engine 503 (the stream needs a restart to recover),
// anything else 500.
func writeStreamError(w http.ResponseWriter, err error) {
	var be *stream.BatchError
	var de *replica.DegradedError
	switch {
	case errors.As(err, &be):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.As(err, &de):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, stream.ErrClosed), errors.Is(err, stream.ErrCrashed):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// streamForestReply is the GET /streams/{id}/forest body: the maintained
// canonical MSF.
type streamForestReply struct {
	ID        string       `json:"id"`
	Vertices  int          `json:"vertices"`
	LiveEdges int          `json:"live_edges"`
	Trees     int          `json:"trees"`
	Weight    float64      `json:"weight"`
	LastBatch uint64       `json:"last_batch"`
	Forest    []forestEdge `json:"forest"`
}

type forestEdge struct {
	U uint32  `json:"u"`
	V uint32  `json:"v"`
	W float32 `json:"w"`
}

func (s *server) handleStreamForest(w http.ResponseWriter, req *http.Request) {
	if s.rejectNotReady(w) {
		return
	}
	id := req.PathValue("id")
	e, err := s.streams.get(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	st := e.Stats()
	// ?min_batch=K is the read-your-writes fence: a client that had batch K
	// acknowledged (by the primary) can demand a replica that has caught up
	// at least that far; a stale one answers 503 + Retry-After instead of
	// silently serving an older forest.
	if raw := req.URL.Query().Get("min_batch"); raw != "" {
		k, perr := strconv.ParseUint(raw, 10, 64)
		if perr != nil {
			http.Error(w, fmt.Sprintf("bad min_batch %q", raw), http.StatusBadRequest)
			return
		}
		if st.LastBatch < k {
			w.Header().Set("Retry-After", "1")
			http.Error(w, fmt.Sprintf("stream %q is at batch %d, behind requested %d", id, st.LastBatch, k),
				http.StatusServiceUnavailable)
			return
		}
	}
	forest := e.Forest()
	reply := streamForestReply{
		ID:        id,
		Vertices:  e.Vertices(),
		LiveEdges: st.LiveEdges,
		Trees:     st.Trees,
		Weight:    st.Weight,
		LastBatch: st.LastBatch,
		Forest:    make([]forestEdge, len(forest)),
	}
	for i, ed := range forest {
		reply.Forest[i] = forestEdge{U: ed.U, V: ed.V, W: ed.W}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(reply)
}

func (s *server) handleGetStream(w http.ResponseWriter, req *http.Request) {
	if s.rejectNotReady(w) {
		return
	}
	id := req.PathValue("id")
	e, err := s.streams.get(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.streamInfo(id, e))
}

func (s *server) handleListStreams(w http.ResponseWriter, _ *http.Request) {
	if s.rejectNotReady(w) {
		return
	}
	ids := s.streams.ids()
	type row struct {
		ID        string `json:"id"`
		Vertices  int    `json:"vertices"`
		LastBatch uint64 `json:"last_batch"`
	}
	rows := make([]row, 0, len(ids))
	for _, id := range ids {
		if e, err := s.streams.get(id); err == nil {
			rows = append(rows, row{ID: id, Vertices: e.Vertices(), LastBatch: e.LastBatch()})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(rows)
}

func (s *server) handleDeleteStream(w http.ResponseWriter, req *http.Request) {
	if s.rejectDraining(w) || s.rejectNotReady(w) {
		return
	}
	if err := s.streams.remove(req.PathValue("id")); err != nil {
		if errors.Is(err, errStreamNotFound) {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// writeStreamMetrics appends per-stream engine gauges to the Prometheus
// export. Stream IDs are client-chosen strings, so the label value goes
// through PromEscape — a quote or newline in an ID must not be able to
// break the exposition format.
func writeStreamMetrics(w io.Writer, m *streamManager) {
	ids := m.ids()
	if len(ids) == 0 {
		return
	}
	fmt.Fprintln(w, "# HELP llpmst_stream_gauge Per-stream engine state by kind.")
	fmt.Fprintln(w, "# TYPE llpmst_stream_gauge gauge")
	for _, id := range ids {
		e, err := m.get(id)
		if err != nil {
			continue
		}
		st := e.Stats()
		esc := obs.PromEscape(id)
		for _, kv := range []struct {
			kind string
			v    float64
		}{
			{"live_edges", float64(st.LiveEdges)},
			{"forest_edges", float64(st.ForestEdges)},
			{"trees", float64(st.Trees)},
			{"weight", st.Weight},
			{"last_batch", float64(st.LastBatch)},
			{"batches", float64(st.Batches)},
			{"snapshots", float64(st.Snapshots)},
		} {
			fmt.Fprintf(w, "llpmst_stream_gauge{stream=\"%s\",kind=%q} %g\n", esc, kv.kind, kv.v)
		}
	}
}
