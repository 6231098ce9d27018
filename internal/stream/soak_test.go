package stream

import (
	"math/rand"
	"testing"

	"llpmst/internal/graph"
)

// soakFamily is one randomized workload generator. Each family stresses a
// different part of the delete machinery: replacement search, cuts that
// split large sides, tie-breaking on parallel edges, and snapshot/reopen
// cycles.
type soakFamily struct {
	name string
	n    int
	cfg  func(dir string) Config
	// reopenEvery > 0 closes and reopens the engine periodically (exercising
	// snapshot + WAL recovery mid-soak).
	reopenEvery int
	// next produces one batch of ops given the oracle's current live set.
	next func(rng *rand.Rand, o *liveOracle) []Op
}

func soakFamilies() []soakFamily {
	memCfg := func(n int) func(string) Config {
		return func(string) Config { return Config{Vertices: n} }
	}
	return []soakFamily{
		{
			// Uniform random inserts and deletes over the whole vertex set.
			name: "uniform",
			n:    64,
			cfg:  memCfg(64),
			next: func(rng *rand.Rand, o *liveOracle) []Op {
				ops := make([]Op, 0, 8)
				for k := rng.Intn(8) + 1; k > 0; k-- {
					if len(o.edges) > 0 && rng.Intn(2) == 0 {
						e := o.edges[rng.Intn(len(o.edges))]
						ops = append(ops, del(e.U, e.V, e.W))
					} else {
						u, v := uint32(rng.Intn(64)), uint32(rng.Intn(64))
						if u == v {
							v = (v + 1) % 64
						}
						ops = append(ops, ins(u, v, float32(rng.Intn(1000))/8))
					}
				}
				return ops
			},
		},
		{
			// Heavy churn biased toward deleting recently inserted edges, so
			// forest edges are cut often and replacement search dominates.
			name: "churn",
			n:    48,
			cfg:  memCfg(48),
			next: func(rng *rand.Rand, o *liveOracle) []Op {
				ops := make([]Op, 0, 6)
				for k := rng.Intn(6) + 1; k > 0; k-- {
					if len(o.edges) > 8 && rng.Intn(3) != 0 {
						// Bias toward the tail: newest edges are likeliest to
						// be light forest members.
						i := len(o.edges) - 1 - rng.Intn(len(o.edges)/2+1)
						e := o.edges[i]
						ops = append(ops, del(e.U, e.V, e.W))
					} else {
						u, v := uint32(rng.Intn(48)), uint32(rng.Intn(48))
						if u == v {
							v = (v + 1) % 48
						}
						ops = append(ops, ins(u, v, float32(rng.Intn(40))))
					}
				}
				return ops
			},
		},
		{
			// Two dense clusters joined by a handful of bridges; deleting a
			// bridge splits a large component and forces wide cut searches.
			name: "bridges",
			n:    60,
			cfg:  memCfg(60),
			next: func(rng *rand.Rand, o *liveOracle) []Op {
				ops := make([]Op, 0, 6)
				for k := rng.Intn(6) + 1; k > 0; k-- {
					switch {
					case len(o.edges) > 4 && rng.Intn(3) == 0:
						e := o.edges[rng.Intn(len(o.edges))]
						ops = append(ops, del(e.U, e.V, e.W))
					case rng.Intn(5) == 0:
						// Bridge: cluster A is [0,30), cluster B is [30,60).
						ops = append(ops, ins(uint32(rng.Intn(30)), uint32(30+rng.Intn(30)), 50+float32(rng.Intn(10))))
					default:
						base := uint32(30 * rng.Intn(2))
						u, v := base+uint32(rng.Intn(30)), base+uint32(rng.Intn(30))
						if u == v {
							v = base + (v-base+1)%30
						}
						ops = append(ops, ins(u, v, float32(rng.Intn(20))))
					}
				}
				return ops
			},
		},
		{
			// Tiny weight domain on a small vertex set: nearly every edge has
			// ties and parallels, so insertion-order tie-breaking must match
			// the oracle's exactly.
			name: "ties",
			n:    12,
			cfg:  memCfg(12),
			next: func(rng *rand.Rand, o *liveOracle) []Op {
				ops := make([]Op, 0, 5)
				for k := rng.Intn(5) + 1; k > 0; k-- {
					if len(o.edges) > 2 && rng.Intn(2) == 0 {
						e := o.edges[rng.Intn(len(o.edges))]
						ops = append(ops, del(e.U, e.V, e.W))
					} else {
						u, v := uint32(rng.Intn(12)), uint32(rng.Intn(12))
						if u == v {
							v = (v + 1) % 12
						}
						ops = append(ops, ins(u, v, float32(rng.Intn(3))))
					}
				}
				return ops
			},
		},
		{
			// Adversarial for the replacement scan: two clusters joined by
			// bridges heavier than any cluster edge, with a fifth of the ops
			// deleting the lightest live bridge — the forest's crossing edge
			// whenever the clusters are connected — so the cut splits the
			// component into two large sides; random deletes hold the live
			// set near 100 edges. The engine runs with a durable dir,
			// frequent snapshots, and periodic close/reopen.
			name: "bridges-durable",
			n:    40,
			cfg: func(dir string) Config {
				return Config{Vertices: 40, Dir: dir, Sync: SyncOff, SnapshotEvery: 50}
			},
			reopenEvery: 97,
			next: func(rng *rand.Rand, o *liveOracle) []Op {
				ops := make([]Op, 0, 6)
				for k := rng.Intn(6) + 1; k > 0; k-- {
					r := rng.Intn(20)
					if r < 4 {
						if b, ok := lightestBridge(o, 20); ok {
							ops = append(ops, del(b.U, b.V, b.W))
							continue
						}
					}
					switch {
					case r < 10 && len(o.edges) > 100:
						e := o.edges[rng.Intn(len(o.edges))]
						ops = append(ops, del(e.U, e.V, e.W))
					case r < 14:
						// Bridge: cluster A is [0,20), cluster B is [20,40).
						ops = append(ops, ins(uint32(rng.Intn(20)), uint32(20+rng.Intn(20)), 50+float32(rng.Intn(50))))
					default:
						base := uint32(20 * rng.Intn(2))
						u, v := base+uint32(rng.Intn(20)), base+uint32(rng.Intn(20))
						if u == v {
							v = base + (v-base+1)%20
						}
						ops = append(ops, ins(u, v, float32(rng.Intn(50))))
					}
				}
				return ops
			},
		},
	}
}

// TestSoakMixedBatches drives each generator family for thousands of batches,
// cross-checking the maintained forest against a from-scratch Kruskal oracle
// after every batch. 20k batches total in long mode, 2k under -short.
func TestSoakMixedBatches(t *testing.T) {
	perFamily := 4000
	if testing.Short() {
		perFamily = 400
	}
	for _, fam := range soakFamilies() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(len(fam.name)) * 1009))
			dir := t.TempDir()
			cfg := fam.cfg(dir)
			e, _, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { e.Close() }()
			o := &liveOracle{n: fam.n}
			for b := 1; b <= perFamily; b++ {
				ops := fam.next(rng, o)
				if _, err := e.Apply(Batch{ID: uint64(b), Ops: ops}); err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
				o.apply(ops)
				checkAgainstOracle(t, e, o)
				if t.Failed() {
					t.Fatalf("diverged at batch %d", b)
				}
				if fam.reopenEvery > 0 && b%fam.reopenEvery == 0 {
					if err := e.Close(); err != nil {
						t.Fatalf("close at batch %d: %v", b, err)
					}
					var rep *RecoveryReport
					e, rep, err = Open(cfg)
					if err != nil {
						t.Fatalf("reopen at batch %d: %v", b, err)
					}
					if rep.Torn {
						t.Fatalf("reopen at batch %d: clean close recovered torn: %+v", b, rep)
					}
					if rep.LastBatch != uint64(b) {
						t.Fatalf("reopen at batch %d: high-water %d", b, rep.LastBatch)
					}
					checkAgainstOracle(t, e, o)
				}
			}
			st := e.Stats()
			t.Logf("%s: %d batches, forest=%d trees=%d swaps=%d",
				fam.name, perFamily, st.ForestEdges, st.Trees, st.Swaps)
		})
	}
}

// lightestBridge returns the earliest lightest live edge joining [0, half)
// to the rest of the vertices.
func lightestBridge(o *liveOracle, half uint32) (graph.Edge, bool) {
	var best graph.Edge
	found := false
	for _, e := range o.edges {
		if (e.U < half) != (e.V < half) && (!found || e.W < best.W) {
			best, found = e, true
		}
	}
	return best, found
}
