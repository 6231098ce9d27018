package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"llpmst/internal/graph"
	"llpmst/internal/mst"
)

// traceShare divides the window: each workload's HTTP pass in a traced run
// lasts window/traceShare, and its in-process replay repeats the same ops.
const traceShare = 4

// layerMetrics lists, per workload, the per-layer metrics its traced
// replay reports (each prefixed with the workload's name). Every workload
// also reports commonLayerMetrics.
var (
	commonLayerMetrics = []string{
		"op_ms.p50", "op_ms.p99", "http.overhead_ms.p50",
		"http.req_bytes_per_op", "http.resp_bytes_per_op", "trace.spans_per_op",
	}
	layerMetrics = map[string][]string{
		"solve-cold": {
			"registry.decode_ms.p50", "registry.put_ms.p50",
			"resilient.solve_ms.p50", "resilient.solve_ms.p99", "resilient.legs_per_solve",
			"resilient.hedge_win_ratio", "resilient.fallback_ratio", "resilient.overhead_ms.p50",
			"mst.kernel_ms.p50", "mst.kernel_share",
		},
		"solve-hot": {
			"registry.solve_ms.p50", "registry.solve_ms.p99", "registry.hit_ratio", "mst.kernel_share",
		},
		"stream-churn": {
			"stream.apply_ms.p50", "stream.apply_ms.p99", "stream.apply_mem_ms.p50",
			"stream.apply_mem_ms.p99", "stream.wal_ms.p50", "stream.recompute_ratio",
		},
	}
)

// fig3Algorithms are the kernels timed at scale m on road and rmat (the
// paper's Fig. 3 datasets), each with one and two workers except the
// sequential ones. Names, not constants, so that removing a backend from
// internal/mst does not break this package's build.
var fig3Algorithms = []struct {
	name       string
	sequential bool
}{
	{"prim", true}, {"llp-prim", true}, {"llp-prim-par", false}, {"llp-prim-async", false},
	{"boruvka-par", false}, {"llp-boruvka", false}, {"semi-boruvka", false},
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.Contains(name, "bytes"):
		return "B"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"):
		return "fraction"
	}
	return "count"
}

// layerMetricNames lists every per-layer metric a traced run prints.
func layerMetricNames() []string {
	names := []string{"trace.span_cost_ns"}
	for _, w := range workloads {
		for _, m := range append(slices.Clone(commonLayerMetrics), layerMetrics[w.name]...) {
			names = append(names, w.name+"."+m)
		}
	}
	for _, g := range []string{"road", "rmat"} {
		for _, a := range fig3Algorithms {
			for wk := 1; wk <= 2; wk++ {
				if wk == 2 && a.sequential {
					continue
				}
				names = append(names, fmt.Sprintf("mst.%s.%s.w%d_ms", a.name, g, wk))
			}
		}
	}
	return names
}

// runTraced produces every per-layer metric. Each workload gets a short
// HTTP pass (for the HTTP-side numbers), then an in-process replay of the
// same op sequence with a span around every call into a layer. Then the
// Fig. 3 kernels are timed alone. The spans are written to o.spans.
func runTraced(o options, bin string) (*report, error) {
	rep := newReport()
	costs := make([]float64, 5)
	for i := range costs {
		costs[i] = spanCost()
	}
	rep.set("trace.span_cost_ns", median(costs), "ns")
	dump := map[string][]span{}
	for _, w := range workloads {
		spans, err := traceWorkload(o, w, bin, rep)
		if err != nil {
			return nil, err
		}
		dump[w.name] = spans
	}
	fig3(o, rep)
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) {
			fmt.Fprintf(o.log, "%s: no samples\n", name)
			rep.set(name, 0, m.Unit)
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, writeSpans(o.spans, dump)
}

// spanCost is the measured cost of one start/end pair, in ns.
func spanCost() float64 {
	const n = 1 << 16
	tr := newTracer(n)
	parent := spanRef{idx: -1, op: 0}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.start("calibrate", parent))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

func traceWorkload(o options, w workload, bin string, rep *report) ([]span, error) {
	newRun, err := w.prepare(o)
	if err != nil {
		return nil, err
	}
	s, err := startSession(o, w, bin, newRun, 0)
	if err != nil {
		return nil, err
	}
	if o.corrupt {
		s.run.corrupt()
	}
	cli := s.target.cli
	req0, resp0 := cli.reqBytes, cli.respBytes
	win := runWindow(s.target, s.run, o.window/traceShare, 0, nil)
	req, resp := cli.reqBytes, cli.respBytes
	if err := s.run.finish(s.target); err != nil {
		win.failed++
		win.firstErr = errors.Join(win.firstErr, err)
	}
	s.close()

	ops := win.ops()
	tr := newTracer(16*ops + 1024)
	pt, err := newProcTarget(o, w, tr)
	if err != nil {
		return nil, err
	}
	r := newRun()
	if err := r.setup(pt); err != nil {
		pt.close()
		return nil, fmt.Errorf("%s replay setup: %w", w.name, err)
	}
	if o.corrupt {
		r.corrupt()
	}
	swaps0, recomputes0 := pt.streamCounts()
	replay := runWindow(pt, r, 0, win.ops(), nil)
	if err := r.finish(pt); err != nil {
		replay.failed++
		replay.firstErr = errors.Join(replay.firstErr, err)
	}
	swaps, recomputes := pt.streamCounts()
	if err := pt.close(); err != nil {
		return nil, err
	}
	for _, f := range []*window{win, replay} {
		rep.Attempted += int64(f.ops())
		rep.Failed += f.failed
		if f.firstErr != nil {
			fmt.Fprintf(o.log, "%s: %d failed; first failure: %v\n", w.name, f.failed, f.firstErr)
		}
	}
	if d := tr.dropped.Load(); d > 0 {
		fmt.Fprintf(o.log, "%s: %d spans dropped\n", w.name, d)
	}

	spans := tr.recorded()
	byName := map[string][]float64{}
	perOp := map[string]map[int64]float64{} // name -> op -> summed ms
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp.ms())
		if perOp[sp.Name] == nil {
			perOp[sp.Name] = map[int64]float64{}
		}
		perOp[sp.Name][sp.Op] += sp.ms()
	}
	sum := func(name string) float64 {
		total := 0.0
		for _, v := range byName[name] {
			total += v
		}
		return total
	}
	// diffP50 is the median over ops of a's time minus the time of bs.
	diffP50 := func(a string, bs ...string) float64 {
		var d []float64
		for op, v := range perOp[a] {
			for _, b := range bs {
				v -= perOp[b][op]
			}
			d = append(d, v)
		}
		return median(d)
	}
	q := func(name string, p float64) float64 { return quantile(slices.Clone(byName[name]), p) }
	// Kernel time is a share of what the HTTP client waited for the same ops.
	e2eTotal := 0.0
	for _, v := range win.lat {
		e2eTotal += v
	}
	solves := float64(pt.solves.Load())
	vals := map[string]float64{
		"op_ms.p50":                 q("op", 0.5),
		"op_ms.p99":                 q("op", 0.99),
		"http.overhead_ms.p50":      median(win.lat) - q("op", 0.5),
		"http.req_bytes_per_op":     ratio(float64(req-req0), float64(ops)),
		"http.resp_bytes_per_op":    ratio(float64(resp-resp0), float64(ops)),
		"trace.spans_per_op":        ratio(float64(len(spans)), float64(ops)),
		"registry.decode_ms.p50":    q("registry.decode", 0.5),
		"registry.put_ms.p50":       q("registry.put", 0.5),
		"registry.solve_ms.p50":     q("registry.solve", 0.5),
		"registry.solve_ms.p99":     q("registry.solve", 0.99),
		"registry.hit_ratio":        ratio(float64(pt.hits.Load()), float64(pt.regSolves.Load())),
		"resilient.solve_ms.p50":    q("resilient.solve", 0.5),
		"resilient.solve_ms.p99":    q("resilient.solve", 0.99),
		"resilient.legs_per_solve":  ratio(float64(pt.legs.Load()), solves),
		"resilient.hedge_win_ratio": ratio(float64(pt.hedgeWins.Load()), solves),
		"resilient.fallback_ratio":  ratio(float64(pt.fallbacks.Load()), solves),
		"resilient.overhead_ms.p50": diffP50("resilient.solve", "mst.kernel"),
		"mst.kernel_ms.p50":         q("mst.kernel", 0.5),
		"mst.kernel_share":          ratio(sum("mst.kernel"), e2eTotal),
		"stream.apply_ms.p50":       q("stream.apply", 0.5),
		"stream.apply_ms.p99":       q("stream.apply", 0.99),
		"stream.apply_mem_ms.p50":   q("stream.apply_mem", 0.5),
		"stream.apply_mem_ms.p99":   q("stream.apply_mem", 0.99),
		"stream.wal_ms.p50":         diffP50("stream.apply", "stream.apply_mem"),
		"stream.recompute_ratio":    ratio(float64(recomputes-recomputes0), float64(swaps-swaps0+recomputes-recomputes0)),
	}
	for _, m := range append(slices.Clone(commonLayerMetrics), layerMetrics[w.name]...) {
		v, ok := vals[m]
		if !ok {
			return nil, fmt.Errorf("no value for per-layer metric %s", m)
		}
		rep.set(w.name+"."+m, v, unitOf(m))
	}
	return spans, nil
}

// fig3 times each kernel alone on the solve-cold road and rmat graphs:
// one warm-up run on a fresh workspace, then the median of three, each
// checked against Kruskal.
func fig3(o options, rep *report) {
	d := dimsM
	if o.tiny {
		d = dimsTest
	}
	for k, name := range []string{"road", "rmat"} {
		g := genGraph(name, d, o.seed*100+int64(k))
		want := mst.Kruskal(g)
		for _, a := range fig3Algorithms {
			for wk := 1; wk <= 2; wk++ {
				if wk == 2 && a.sequential {
					continue
				}
				med, err := timeKernel(g, mst.Algorithm(a.name), wk, want)
				rep.Attempted++
				if err != nil {
					rep.Failed++
					fmt.Fprintf(o.log, "fig3 %s on %s: %v\n", a.name, name, err)
				}
				rep.set(fmt.Sprintf("mst.%s.%s.w%d_ms", a.name, name, wk), med, "ms")
			}
		}
	}
}

func timeKernel(g *graph.CSR, alg mst.Algorithm, workers int, want *mst.Forest) (float64, error) {
	opts := mst.Options{Workers: workers, Workspace: mst.NewWorkspace()}
	times := make([]float64, 0, 3)
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		f, err := mst.RunCtx(context.Background(), alg, g, opts)
		if err != nil {
			return math.NaN(), err
		}
		if i > 0 {
			times = append(times, ms(time.Since(t0)))
		}
		if !f.Equal(want) {
			return math.NaN(), fmt.Errorf("forest differs from Kruskal's")
		}
	}
	return median(times), nil
}

// writeSpans writes every workload's spans as one JSON object keyed by
// workload name.
func writeSpans(path string, dump map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(dump); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
