package stream

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

// benchOps pre-generates batches for a workload so the measured loop does
// nothing but Apply. mixed workloads delete a previously inserted edge for
// roughly a third of the ops.
func benchOps(n, batches, opsPer int, mixed bool, seed int64) [][]Op {
	rng := rand.New(rand.NewSource(seed))
	o := &liveOracle{n: n}
	out := make([][]Op, batches)
	for b := range out {
		ops := make([]Op, 0, opsPer)
		for k := 0; k < opsPer; k++ {
			if mixed && len(o.edges) > 16 && rng.Intn(3) == 0 {
				e := o.edges[rng.Intn(len(o.edges))]
				ops = append(ops, del(e.U, e.V, e.W))
			} else {
				u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
				if u == v {
					v = (v + 1) % uint32(n)
				}
				ops = append(ops, ins(u, v, rng.Float32()*100))
			}
		}
		o.apply(ops)
		out[b] = ops
	}
	return out
}

func benchApply(b *testing.B, n, opsPer int, mixed bool, sync SyncPolicy, durable bool) {
	script := benchOps(n, b.N, opsPer, mixed, 42)
	cfg := Config{Vertices: n, Sync: sync}
	if durable {
		cfg.Dir = b.TempDir()
		cfg.SnapshotEvery = 1 << 30 // never: isolate WAL cost
	}
	e, _, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Apply(Batch{ID: uint64(i + 1), Ops: script[i]}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(opsPer), "ops/batch")
}

func BenchmarkApplyInsertMem(b *testing.B)    { benchApply(b, 1<<14, 16, false, SyncOff, false) }
func BenchmarkApplyMixedMem(b *testing.B)     { benchApply(b, 1<<14, 16, true, SyncOff, false) }
func BenchmarkApplyMixedWALOff(b *testing.B)  { benchApply(b, 1<<14, 16, true, SyncOff, true) }
func BenchmarkApplyMixedWALSync(b *testing.B) { benchApply(b, 1<<14, 16, true, SyncAlways, true) }

// TestBatchLatencyReport prints the batch-apply latency table that
// EXPERIMENTS.md quotes: p50/p95/p99 per batch size, insert-only vs mixed,
// plus the bridge-churn adversary (bridgedGrids), whose every batch cuts a
// 4096-vertex side off. Gated behind LLPMST_LATENCY=1 so normal test runs
// stay fast.
func TestBatchLatencyReport(t *testing.T) {
	if os.Getenv("LLPMST_LATENCY") != "1" {
		t.Skip("set LLPMST_LATENCY=1 to run the latency harness")
	}
	const n = 1 << 14
	quantile := func(d []time.Duration, q float64) time.Duration {
		i := int(q * float64(len(d)-1))
		return d[i]
	}
	// report applies script as batches first, first+1, ... and prints one
	// table row of their latencies.
	report := func(size int, kind string, e *Engine, first uint64, script [][]Op) {
		lat := make([]time.Duration, 0, len(script))
		for i, ops := range script {
			start := time.Now()
			if _, err := e.Apply(Batch{ID: first + uint64(i), Ops: ops}); err != nil {
				t.Fatal(err)
			}
			lat = append(lat, time.Since(start))
		}
		e.Close()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fmt.Printf("| %d | %s | %v | %v | %v |\n",
			size, kind, quantile(lat, 0.50), quantile(lat, 0.95), quantile(lat, 0.99))
	}
	fmt.Printf("| batch size | workload | p50 | p95 | p99 |\n")
	fmt.Printf("|---:|---|---:|---:|---:|\n")
	for _, size := range []int{1, 16, 256} {
		batches := 20000 / size * 4
		if batches > 20000 {
			batches = 20000
		}
		for _, mixed := range []bool{false, true} {
			e, _, err := Open(Config{Vertices: n, Sync: SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			kind := "insert-only"
			if mixed {
				kind = "mixed (1/3 delete)"
			}
			report(size, kind, e, 1, benchOps(n, batches, size, mixed, 7))
		}
	}

	bn, build, b := bridgedGrids(64, 7)
	e, _, err := Open(Config{Vertices: bn, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Batch{ID: 1, Ops: build}); err != nil {
		t.Fatal(err)
	}
	script := make([][]Op, 2000)
	for i := range script {
		script[i] = []Op{del(b.U, b.V, b.W), ins(b.U, b.V, b.W)}
	}
	report(2, "bridge churn (two 64² grids)", e, 2, script)
}
