package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
	"llpmst/internal/mst"
	"llpmst/internal/stream"
)

// target is where a workload's operations go: an mstserve process over HTTP
// (httpTarget) or the same packages called in process with spans
// (procTarget). Workloads are written once against it, so both modes send
// the identical seeded op sequence.
type target interface {
	putGraph(id string, data []byte) error
	solve(id string, edges bool) (solveAnswer, error)
	createStream(id string, vertices int) error
	update(id string, batch uint64, ops []stream.Op) (stream.ApplyResult, error)
	forest(id string) (forestAnswer, error)
	// beginOp marks the start of one timed op and returns the function that
	// marks its end.
	beginOp() func()
}

type solveAnswer struct {
	Weight      float64  `json:"weight"`
	ForestEdges int      `json:"forest_edges"`
	EdgeIDs     []uint32 `json:"edge_ids"`
}

type forestAnswer struct {
	Weight float64
	Edges  int
	Trees  int
}

// run is one setup's worth of workload state: each setup of a run starts
// from a fresh server, so it gets a fresh run.
type run interface {
	// setup registers graphs or creates and seeds a stream, then warms up.
	setup(t target) error
	// op performs the next op and checks its answer.
	op(t target) error
	// finish checks the state left after the last op.
	finish(t target) error
	// corrupt is a test hook: it makes one oracle answer wrong, so that a
	// run proves its answers are checked.
	corrupt()
}

// workload is one traffic mix. Sizes, op mixes and warm-up lengths are
// fixed here so that two commits always do the same work. Each workload is
// one closed-loop client against one mstserve: on a two-CPU host a second
// client measures the scheduler as much as the server (solve-hot's
// run-to-run spread was about twice as wide with two).
type workload struct {
	name string
	// tail is the percentile latency_tail_ms reports. Each sits where its
	// workload's latency distribution is flat: a percentile on the knee
	// between fast ops and the slow few (cache misses, recomputes) moves by
	// ±20% from run to run.
	tail float64
	// prepare generates the seeded inputs and their oracles, before any
	// clock starts, and returns a constructor of fresh runs over them.
	prepare func(o options) (func() run, error)
}

var workloads = []workload{
	{name: "solve-cold", tail: 0.9, prepare: prepareSolveCold},
	{name: "solve-hot", tail: 0.999, prepare: prepareSolveHot},
	{name: "stream-churn", tail: 0.99, prepare: prepareStreamChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// dims sizes the four generator families. Scale m is ~260k vertices, s
// ~65k, test ~1k.
type dims struct {
	road, rmat, erN, erM, geoN int
}

var (
	dimsM    = dims{road: 512, rmat: 16, erN: 1 << 16, erM: 1 << 19, geoN: 1 << 16}
	dimsS    = dims{road: 256, rmat: 14, erN: 1 << 14, erM: 1 << 17, geoN: 1 << 14}
	dimsTest = dims{road: 32, rmat: 10, erN: 1 << 10, erM: 1 << 13, geoN: 1 << 10}
)

var kinds = []string{"road", "rmat", "er", "geo"}

func genGraph(kind string, d dims, seed int64) *graph.CSR {
	switch kind {
	case "road":
		return gen.RoadNetwork(0, d.road, d.road, 0.2, seed)
	case "rmat":
		return gen.RMAT(0, d.rmat, 16, gen.WeightUniform, seed)
	case "er":
		return gen.ErdosRenyi(0, d.erN, d.erM, gen.WeightUniform, seed)
	default:
		return gen.Geometric(0, d.geoN, gen.ConnectivityRadius(d.geoN), seed)
	}
}

// reweight returns g with its weights shuffled among its edges: the same
// structure and weight distribution, different bytes and a different MSF.
func reweight(g *graph.CSR, seed int64) *graph.CSR {
	edges := slices.Clone(g.Edges())
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i].W, edges[j].W = edges[j].W, edges[i].W })
	return graph.MustFromEdges(0, g.NumVertices(), edges)
}

func encode(g *graph.CSR) ([]byte, error) {
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ---- solve-cold -----------------------------------------------------------

// coldGraph is one uploadable variant and its Kruskal edge-ID set.
type coldGraph struct {
	data []byte
	ids  []uint32
}

// coldWarmOps is the untimed warm-up: three ops per graph kind, so the
// portfolio has learned a latency for every size bucket (it hedges eagerly
// until it has three samples).
const coldWarmOps = 12

// prepareSolveCold builds, per kind, two weight variants at scale s. Every
// op re-registers g{k} with the variant it does not hold and solves it, so
// every solve misses the result cache.
func prepareSolveCold(o options) (func() run, error) {
	d := dimsS
	if o.tiny {
		d = dimsTest
	}
	pool := make([][2]coldGraph, len(kinds))
	for k, kind := range kinds {
		g := genGraph(kind, d, o.seed*100+int64(k))
		for v := range pool[k] {
			if v == 1 {
				g = reweight(g, o.seed*100+int64(k)+50)
			}
			data, err := encode(g)
			if err != nil {
				return nil, err
			}
			pool[k][v] = coldGraph{data: data, ids: mst.Kruskal(g).EdgeIDs}
		}
	}
	return func() run { return &coldRun{pool: slices.Clone(pool)} }, nil
}

type coldRun struct {
	pool [][2]coldGraph
	held []int // variant currently registered per kind
	next int
}

func (r *coldRun) setup(t target) error {
	r.held = make([]int, len(r.pool))
	for k := range r.pool {
		if err := t.putGraph(coldID(k), r.pool[k][0].data); err != nil {
			return err
		}
	}
	for i := 0; i < coldWarmOps; i++ {
		if err := r.op(t); err != nil {
			return err
		}
	}
	return nil
}

func coldID(k int) string { return fmt.Sprintf("g%d", k) }

func (r *coldRun) op(t target) error {
	k := r.next % len(r.pool)
	r.next++
	v := 1 - r.held[k]
	r.held[k] = v
	g := r.pool[k][v]
	if err := t.putGraph(coldID(k), g.data); err != nil {
		return err
	}
	ans, err := t.solve(coldID(k), true)
	if err != nil {
		return err
	}
	if !slices.Equal(ans.EdgeIDs, g.ids) {
		return fmt.Errorf("%s: forest edge IDs differ from Kruskal's (%d vs %d edges)", coldID(k), len(ans.EdgeIDs), len(g.ids))
	}
	return nil
}

func (r *coldRun) finish(target) error { return nil }

func (r *coldRun) corrupt() {
	for v, g := range r.pool[0] {
		r.pool[0][v].ids = append([]uint32{g.ids[0] + 1}, g.ids[1:]...)
	}
}

// ---- solve-hot ------------------------------------------------------------

const (
	hotGraphs = 64
	// hotLarge graphs, one per kind, are at scale s; the rest at scale test.
	hotLarge = 4
	// hotRePut is the share of ops that re-register a small graph, so that
	// the next solve of it misses the result cache.
	hotRePut   = 0.01
	hotZipfS   = 1.1
	hotWarmOps = 500
)

type hotGraph struct {
	id     string
	data   []byte
	weight float64
	edges  int
	large  bool
}

func prepareSolveHot(o options) (func() run, error) {
	n := hotGraphs
	if o.tiny {
		n = 8
	}
	graphs := make([]hotGraph, n)
	for i := range graphs {
		d, large := dimsTest, i < hotLarge && !o.tiny
		if large {
			d = dimsS
		}
		g := genGraph(kinds[i%len(kinds)], d, o.seed*1000+int64(i))
		data, err := encode(g)
		if err != nil {
			return nil, err
		}
		f := mst.Kruskal(g)
		graphs[i] = hotGraph{id: fmt.Sprintf("h%02d", i), data: data, weight: f.Weight, edges: len(f.EdgeIDs), large: large}
	}
	// Popularity ranks are a seeded permutation of the graphs.
	rank := rand.New(rand.NewSource(o.seed)).Perm(n)
	return func() run {
		rng := rand.New(rand.NewSource(o.seed * 10))
		return &hotRun{graphs: graphs, rank: rank, rng: rng, zipf: rand.NewZipf(rng, hotZipfS, 1, uint64(n-1))}
	}, nil
}

type hotRun struct {
	graphs []hotGraph
	rank   []int
	rng    *rand.Rand
	zipf   *rand.Zipf
}

func (r *hotRun) setup(t target) error {
	for _, g := range r.graphs {
		if err := t.putGraph(g.id, g.data); err != nil {
			return err
		}
	}
	for _, g := range r.graphs {
		if _, err := t.solve(g.id, false); err != nil {
			return err
		}
	}
	for i := 0; i < hotWarmOps; i++ {
		if err := r.op(t); err != nil {
			return err
		}
	}
	return nil
}

func (r *hotRun) op(t target) error {
	g := r.graphs[r.rank[r.zipf.Uint64()]]
	if r.rng.Float64() < hotRePut {
		if g.large {
			g = r.graphs[hotLarge] // the first small graph
		}
		// The same bytes: a new version with the same answer.
		return t.putGraph(g.id, g.data)
	}
	ans, err := t.solve(g.id, false)
	if err != nil {
		return err
	}
	if ans.Weight != g.weight || ans.ForestEdges != g.edges {
		return fmt.Errorf("%s: got weight %v over %d edges, Kruskal has %v over %d", g.id, ans.Weight, ans.ForestEdges, g.weight, g.edges)
	}
	return nil
}

func (r *hotRun) finish(target) error { return nil }

func (r *hotRun) corrupt() {
	r.graphs = slices.Clone(r.graphs)
	for i := range r.graphs {
		r.graphs[i].weight++
	}
}

// ---- stream-churn ---------------------------------------------------------

const (
	// streamSide is the side of the road grid the stream lives on: 64² =
	// 4,096 vertices. On a 128² grid a recompute costs ~40 ms, so a window
	// holds too few of them for its throughput to repeat within 10%.
	streamSide      = 64
	streamSeedBatch = 256
	streamBatch     = 16
	streamWarm      = 100
	// streamPreChurn batches are applied to the client's mirror before the
	// stream is seeded, about five turnovers of the live set, so that the
	// seeded stream starts in its steady state rather than drifting away
	// from a spanning grid during the timed window.
	streamPreChurn = 4000
)

// streamRun owns one stream: it generates batches from its seeded RNG and
// mirrors the live edge multiset the stream must hold.
type streamRun struct {
	id     string
	side   int
	rng    *rand.Rand
	live   []graph.Edge
	batch  uint64 // last batch ID sent
	warm   int
	broken bool // the final oracle is off by one tree (corrupt)
}

func prepareStreamChurn(o options) (func() run, error) {
	return func() run {
		side, warm, pre := streamSide, streamWarm, streamPreChurn
		if o.tiny {
			side, warm, pre = 16, 20, 100
		}
		// The grid starts dense (~6.5k edges): at the steady state it keeps
		// a giant component, whose forest-edge deletes exercise the
		// replacement search and the recompute fallback.
		seed := o.seed * 10
		g := gen.RoadNetwork(0, side, side, 0.6, seed)
		r := &streamRun{id: "s0", side: side, rng: rand.New(rand.NewSource(seed + 1)), live: slices.Clone(g.Edges()), warm: warm}
		for i := 0; i < pre; i++ {
			r.nextOps()
		}
		return r
	}, nil
}

func (r *streamRun) vertices() int { return r.side * r.side }

// setup creates the stream, loads the mirrored live edges in 256-op
// batches, then runs the warm-up batches.
func (r *streamRun) setup(t target) error {
	if err := t.createStream(r.id, r.vertices()); err != nil {
		return err
	}
	for lo := 0; lo < len(r.live); lo += streamSeedBatch {
		chunk := r.live[lo:min(lo+streamSeedBatch, len(r.live))]
		ops := make([]stream.Op, len(chunk))
		for i, e := range chunk {
			ops[i] = stream.Op{U: e.U, V: e.V, W: e.W}
		}
		if err := r.send(t, ops); err != nil {
			return err
		}
	}
	for i := 0; i < r.warm; i++ {
		if err := r.op(t); err != nil {
			return err
		}
	}
	return nil
}

func (r *streamRun) op(t target) error { return r.send(t, r.nextOps()) }

func (r *streamRun) send(t target, ops []stream.Op) error {
	r.batch++
	res, err := t.update(r.id, r.batch, ops)
	if err != nil {
		return err
	}
	if res.BatchID != r.batch || res.Duplicate || res.ForestEdges+res.Trees != r.vertices() {
		return fmt.Errorf("%s batch %d: bad ack %+v", r.id, r.batch, res)
	}
	return nil
}

// nextOps draws one 16-op batch and applies it to the mirror: inserts of
// grid-local edges alternate with deletes of live edges, and a quarter of
// the deletes take the lightest of 8 sampled live edges — usually a forest
// edge, which forces the replacement search.
func (r *streamRun) nextOps() []stream.Op {
	ops := make([]stream.Op, 0, streamBatch)
	for k := 0; k < streamBatch; k++ {
		if k%2 == 0 || len(r.live) == 0 {
			e := r.localEdge()
			r.live = append(r.live, e)
			ops = append(ops, stream.Op{U: e.U, V: e.V, W: e.W})
			continue
		}
		i := r.rng.Intn(len(r.live))
		if k%8 == 1 {
			for j := 1; j < 8; j++ {
				if x := r.rng.Intn(len(r.live)); r.live[x].W < r.live[i].W {
					i = x
				}
			}
		}
		e := r.live[i]
		r.live[i] = r.live[len(r.live)-1]
		r.live = r.live[:len(r.live)-1]
		ops = append(ops, stream.Op{Delete: true, U: e.U, V: e.V, W: e.W})
	}
	return ops
}

// localEdge draws a grid edge between a random vertex and one of its four
// neighbours, with a fresh integer weight in the road generator's range
// (integers keep every forest weight an exact float64 sum).
func (r *streamRun) localEdge() graph.Edge {
	side := r.side
	for {
		u := r.rng.Intn(side * side)
		x, y := u%side, u/side
		switch r.rng.Intn(4) {
		case 0:
			x++
		case 1:
			x--
		case 2:
			y++
		default:
			y--
		}
		if x < 0 || y < 0 || x >= side || y >= side {
			continue
		}
		return graph.Edge{U: uint32(u), V: uint32(y*side + x), W: float32(600 + r.rng.Intn(800))}
	}
}

// finish compares the stream's forest with Kruskal over the mirrored live
// multiset.
func (r *streamRun) finish(t target) error {
	g := graph.MustFromEdges(0, r.vertices(), slices.Clone(r.live))
	f := mst.Kruskal(g)
	want := forestAnswer{Weight: f.Weight, Edges: len(f.EdgeIDs), Trees: f.Trees}
	if r.broken {
		want.Trees++
	}
	got, err := t.forest(r.id)
	if err != nil {
		return err
	}
	if got.Edges != want.Edges || got.Trees != want.Trees || math.Abs(got.Weight-want.Weight) > 1e-9*math.Abs(want.Weight) {
		return fmt.Errorf("%s: forest %+v, Kruskal over the live edges has %+v", r.id, got, want)
	}
	return nil
}

func (r *streamRun) corrupt() { r.broken = true }
