package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"llpmst/internal/graph"
	"llpmst/internal/mst"
	"llpmst/internal/registry"
	"llpmst/internal/resilient"
	"llpmst/internal/stream"
)

// serverDefaults are the mstserve flag defaults the in-process replay
// mirrors. TestReplayMirrorsServerDefaults compares them with the built
// server's -h output, so the two modes cannot measure different programs.
var serverDefaults = map[string]string{
	"workers":          "0",
	"deadline":         "30s",
	"verify-rate":      "0.05",
	"max-concurrent":   "0",
	"breaker-trip":     "3",
	"breaker-cooldown": "5s",
	"stream-sync":      "always",
	"snapshot-every":   "1024",
}

type replayConfig struct {
	workers, maxConcurrent, breakerTrip, snapshotEvery int
	deadline, breakerCooldown                          time.Duration
	verifyRate                                         float64
	sync                                               stream.SyncPolicy
}

func parseReplayConfig(flags map[string]string) (replayConfig, error) {
	var c replayConfig
	var syncName string
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.IntVar(&c.workers, "workers", 0, "")
	fs.DurationVar(&c.deadline, "deadline", 0, "")
	fs.Float64Var(&c.verifyRate, "verify-rate", 0, "")
	fs.IntVar(&c.maxConcurrent, "max-concurrent", 0, "")
	fs.IntVar(&c.breakerTrip, "breaker-trip", 0, "")
	fs.DurationVar(&c.breakerCooldown, "breaker-cooldown", 0, "")
	fs.StringVar(&syncName, "stream-sync", "", "")
	fs.IntVar(&c.snapshotEvery, "snapshot-every", 0, "")
	for name, v := range flags {
		if err := fs.Set(name, v); err != nil {
			return c, fmt.Errorf("-%s=%s: %w", name, v, err)
		}
	}
	var err error
	c.sync, err = stream.ParseSyncPolicy(syncName)
	return c, err
}

// span is one timed call into a layer's public function, recorded from
// outside the program by the in-process replay.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`     // the timed op it belongs to
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer stores spans in a slice allocated up front; spans past its
// capacity are counted and dropped.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// spanRef names a recorded span and its op; op < 0 means "not inside a
// timed op", and nothing is recorded under it.
type spanRef struct {
	idx int32
	op  int64
}

var noSpan = spanRef{idx: -1, op: -1}

func (t *tracer) start(name string, parent spanRef) spanRef {
	if parent.op < 0 {
		return noSpan
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return spanRef{idx: -1, op: parent.op}
	}
	t.spans[i] = span{Name: name, Op: parent.op, Parent: parent.idx, Start: int64(time.Since(t.epoch))}
	return spanRef{idx: int32(i), op: parent.op}
}

func (t *tracer) end(r spanRef) {
	if r.idx >= 0 {
		t.spans[r.idx].End = int64(time.Since(t.epoch))
	}
}

func (t *tracer) recorded() []span {
	return t.spans[:min(t.n.Load(), int64(len(t.spans)))]
}

type spanKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanFrom(ctx context.Context) spanRef {
	if r, ok := ctx.Value(spanKey{}).(spanRef); ok {
		return r
	}
	return noSpan
}

// kernelWorkers is the worker count of the solo kernel re-run that
// attributes a solve's time to internal/mst.
const kernelWorkers = 2

// procTarget runs a workload's ops in process through the packages
// mstserve wires together, configured as mstserve's flag defaults
// configure them, and records a span around each call into a layer.
type procTarget struct {
	tr  *tracer
	cfg replayConfig
	dir string

	runner *resilient.Runner
	reg    *registry.Registry
	ws     *mst.Workspace

	// cur is the open op; after holds work the op caused that must run once
	// the op's span has closed (the solo kernel run, the in-memory shadow
	// apply).
	cur    spanRef
	after  func()
	nextOp int64

	streams map[string]*procStream

	// Counts over timed ops. The resilient counts are written by the
	// registry's flight goroutine.
	regSolves, hits                    atomic.Int64
	solves, legs, hedgeWins, fallbacks atomic.Int64
}

// procStream is one durable stream engine. shadow is an in-memory engine
// given the same batches, which splits apply time into maintenance and WAL.
type procStream struct {
	engine, shadow *stream.Engine
}

func newProcTarget(o options, w workload, tr *tracer) (*procTarget, error) {
	cfg, err := parseReplayConfig(serverDefaults)
	if err != nil {
		return nil, err
	}
	t := &procTarget{
		tr: tr, cfg: cfg, dir: filepath.Join(o.work, w.name+"-replay"),
		ws: mst.NewWorkspace(), cur: noSpan, streams: map[string]*procStream{},
	}
	t.runner = resilient.New(resilient.Config{
		Workers:          cfg.workers,
		DefaultDeadline:  cfg.deadline,
		VerifyRate:       cfg.verifyRate,
		MaxConcurrent:    cfg.maxConcurrent,
		BreakerTripAfter: cfg.breakerTrip,
		BreakerCooldown:  cfg.breakerCooldown,
	})
	t.reg = registry.New(registry.Config{Solver: timedSolver{t}, Workers: cfg.workers, SolveTimeout: cfg.deadline})
	return t, nil
}

func (t *procTarget) beginOp() func() {
	ref := t.tr.start("op", spanRef{idx: -1, op: t.nextOp})
	t.nextOp++
	t.cur = ref
	return func() {
		t.tr.end(ref)
		t.cur = noSpan
		if f := t.after; f != nil {
			t.after = nil
			f()
		}
	}
}

// root is a parentless span reference for work op r causes after it ends.
func root(r spanRef) spanRef { return spanRef{idx: -1, op: r.op} }

func (t *procTarget) putGraph(id string, data []byte) error {
	sp := t.tr.start("registry.decode", t.cur)
	g, err := registry.Decode(t.cfg.workers, bytes.NewReader(data))
	t.tr.end(sp)
	if err != nil {
		return err
	}
	sp = t.tr.start("registry.put", t.cur)
	_, err = t.reg.Put(id, g)
	t.tr.end(sp)
	return err
}

func (t *procTarget) solve(id string, edges bool) (solveAnswer, error) {
	op := t.cur
	sp := t.tr.start("registry.solve", op)
	res, err := t.reg.Solve(withSpan(context.Background(), sp), "anonymous", id, 0, registry.SolveOptions{})
	t.tr.end(sp)
	if err != nil {
		return solveAnswer{}, err
	}
	if op.op >= 0 {
		t.regSolves.Add(1)
		if res.Cached {
			t.hits.Add(1)
		} else if g, _, err := t.reg.Snapshot(id, res.Version); err == nil {
			alg := res.Algorithm
			t.after = func() {
				ksp := t.tr.start("mst.kernel", root(op))
				_, _ = mst.RunCtx(context.Background(), alg, g, mst.Options{Workers: kernelWorkers, Workspace: t.ws})
				t.tr.end(ksp)
			}
		}
	}
	ans := solveAnswer{Weight: res.Forest.Weight, ForestEdges: len(res.Forest.EdgeIDs)}
	if edges {
		ans.EdgeIDs = res.Forest.EdgeIDs
	}
	return ans, nil
}

// timedSolver is the registry's Solver: the resilient runner with a span
// around each call.
type timedSolver struct{ t *procTarget }

func (s timedSolver) Solve(ctx context.Context, g *graph.CSR) (resilient.Result, error) {
	t := s.t
	sp := t.tr.start("resilient.solve", spanFrom(ctx))
	res, err := t.runner.Solve(ctx, g)
	t.tr.end(sp)
	if sp.op >= 0 && err == nil {
		t.solves.Add(1)
		t.legs.Add(int64(res.Attempts))
		if res.HedgeWon {
			t.hedgeWins.Add(1)
		}
		if res.FallbackUsed {
			t.fallbacks.Add(1)
		}
	}
	return res, err
}

func (t *procTarget) createStream(id string, vertices int) error {
	ps := &procStream{}
	t.streams[id] = ps
	var err error
	if ps.shadow, _, err = stream.Open(stream.Config{Vertices: vertices, Workers: t.cfg.workers}); err != nil {
		return err
	}
	ps.engine, _, err = stream.Open(stream.Config{
		Vertices: vertices, Dir: filepath.Join(t.dir, id),
		Sync: t.cfg.sync, SnapshotEvery: t.cfg.snapshotEvery, Workers: t.cfg.workers,
	})
	return err
}

func (t *procTarget) stream(id string) (*procStream, error) {
	ps := t.streams[id]
	if ps == nil {
		return nil, fmt.Errorf("stream %q not found", id)
	}
	return ps, nil
}

func (t *procTarget) update(id string, batch uint64, ops []stream.Op) (stream.ApplyResult, error) {
	ps, err := t.stream(id)
	if err != nil {
		return stream.ApplyResult{}, err
	}
	op := t.cur
	b := stream.Batch{ID: batch, Ops: ops}
	sp := t.tr.start("stream.apply", op)
	res, err := ps.engine.ApplyCtx(withSpan(context.Background(), sp), b)
	t.tr.end(sp)
	if err != nil {
		return res, err
	}
	shadow := func() {
		ssp := t.tr.start("stream.apply_mem", root(op))
		_, _ = ps.shadow.Apply(b)
		t.tr.end(ssp)
	}
	if op.op < 0 {
		shadow()
		return res, nil
	}
	t.after = shadow
	return res, nil
}

func (t *procTarget) forest(id string) (forestAnswer, error) {
	ps, err := t.stream(id)
	if err != nil {
		return forestAnswer{}, err
	}
	st := ps.engine.Stats()
	return forestAnswer{Weight: st.Weight, Edges: st.ForestEdges, Trees: st.Trees}, nil
}

// streamCounts sums swaps and recomputes over the durable engines.
func (t *procTarget) streamCounts() (swaps, recomputes int64) {
	for _, ps := range t.streams {
		st := ps.engine.Stats()
		swaps += int64(st.Swaps)
		recomputes += int64(st.Recomputes)
	}
	return swaps, recomputes
}

func (t *procTarget) close() error {
	var errs []error
	for _, ps := range t.streams {
		for _, e := range []*stream.Engine{ps.engine, ps.shadow} {
			if e != nil {
				errs = append(errs, e.Close())
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs = append(errs, t.reg.Drain(ctx), t.runner.Drain(ctx), os.RemoveAll(t.dir))
	return errors.Join(errs...)
}
