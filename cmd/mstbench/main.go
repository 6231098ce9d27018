// Command mstbench regenerates the tables and figures of the paper's
// evaluation (§VII) on synthetic stand-ins for its datasets.
//
// Usage:
//
//	mstbench -exp all                     # every experiment at default scale
//	mstbench -exp fig3 -scale m -trials 5 # Fig. 3 on ~260k-vertex graphs
//	mstbench -exp fig4 -low 4 -high 32
//	mstbench -exp all -csv results.csv    # also dump machine-readable rows
//	mstbench -exp perf -json-out .        # snapshot BENCH_perf.json for the trajectory
//
// Experiments: tableI, fig2, fig3, fig4, sizesweep, ablation, work, perf,
// semi (semiring vs pointer-based Boruvka across a density sweep), conv,
// hedge (also via -hedge: tail latency through the resilient runner, with
// and without hedging, under stalls seeded by -chaos-seed), all.
// Scales: test (~1k vertices), s (~65k), m (~260k), l (~1M).
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"llpmst/internal/bench"
	"llpmst/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mstbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mstbench", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "all", "experiment: tableI|fig2|fig3|fig4|sizesweep|ablation|work|perf|semi|conv|hedge|all")
		scale      = fs.String("scale", "s", "dataset scale: test|s|m|l")
		trials     = fs.Int("trials", 3, "trials per cell (best time is reported)")
		threads    = fs.String("threads", "", "comma-separated worker counts for fig3 (default 1,2,4,8,16,32)")
		low        = fs.Int("low", 4, "low worker count for fig4")
		high       = fs.Int("high", 32, "high worker count for fig4")
		workers    = fs.Int("workers", 8, "worker count for sizesweep and ablation")
		csvPath    = fs.String("csv", "", "also write timing rows as CSV to this path")
		jsonOut    = fs.String("json-out", "", "also write one machine-readable BENCH_<experiment>.json per executed experiment into this directory")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the experiments to this path")
		memProf    = fs.String("memprofile", "", "write a heap profile after the experiments to this path")
		timeout    = fs.Duration("timeout", 0, "cancel the run after this duration (0 = no limit); a timed-out run still reports completed rows")
		traceOut   = fs.String("trace-out", "", "write the runtime phase timeline (spans, counters, gauge maxima) as JSON to this path")
		chromeOut  = fs.String("chrome-trace", "", "write a Chrome Trace Event JSON (load in Perfetto/chrome://tracing; one track per worker, round markers) to this path")
		roundCSV   = fs.String("round-csv", "", "write the per-round convergence series (counter deltas and gauge samples per round) as CSV to this path")
		pprofSrv   = fs.String("pprof", "", "serve net/http/pprof plus live /metrics (Prometheus) and /progress (JSON) on this address (e.g. localhost:6060) for the duration of the run")
		chaosSeed  = fs.Int64("chaos-seed", 1, "fault-injection seed for -exp hedge's injected stalls (identical seeds reproduce identical runs)")
		hedge      = fs.Bool("hedge", false, "also route the bench loop through the resilient runner and report p50/p95/p99 tail latency with and without hedging")
		hedgeIters = fs.Int("hedge-iters", 40, "solves per dataset and mode for -hedge")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var rec *obs.Recording
	if *traceOut != "" {
		rec = obs.NewRecording()
	}
	// The flight recorder powers the event-level exports (-chrome-trace,
	// -round-csv) and the live /metrics + /progress endpoints; it is only
	// constructed when one of those consumers is active, so plain runs keep
	// the free Nop collector.
	var flight *obs.FlightRecorder
	if *chromeOut != "" || *roundCSV != "" || *pprofSrv != "" {
		flight = obs.NewFlightRecorder(0, 0)
	}
	var col obs.Collector
	switch {
	case rec != nil && flight != nil:
		col = obs.Tee(rec, flight)
	case rec != nil:
		col = rec
	case flight != nil:
		col = flight
	}
	if col != nil {
		ctx = obs.NewContext(ctx, col)
	}
	if *pprofSrv != "" {
		// A private mux (not http.DefaultServeMux directly) so repeated runs
		// in one process never double-register handlers; pprof's handlers
		// live on the default mux and are reached through the fallthrough.
		mux := http.NewServeMux()
		if flight != nil {
			mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
				flight.WritePrometheus(w)
			})
			mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				flight.WriteProgress(w)
			})
		}
		mux.Handle("/", http.DefaultServeMux)
		srv := &http.Server{Addr: *pprofSrv, Handler: mux}
		go srv.ListenAndServe()
		defer srv.Close()
		fmt.Fprintf(stdout, "pprof: serving http://%s/debug/pprof/ (+ /metrics, /progress)\n", *pprofSrv)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				return
			}
			runtime.GC()
			pprof.WriteHeapProfile(f)
			f.Close()
		}()
	}

	sc, err := bench.ParseScale(*scale)
	if err != nil {
		return err
	}
	var threadList []int
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || p < 1 {
				return fmt.Errorf("bad -threads entry %q", part)
			}
			threadList = append(threadList, p)
		}
	}

	fmt.Fprintf(stdout, "mstbench: scale=%s trials=%d GOMAXPROCS=%d\n", sc, *trials, runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "note: absolute times are host-dependent; the paper's claims are about curve shapes.\n")

	var all []bench.Result
	ran := false
	step := func(name string, f func() ([]bench.Result, error)) error {
		if *exp != "all" && *exp != name {
			return nil
		}
		ran = true
		rs, err := f()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		all = append(all, rs...)
		return nil
	}
	steps := []struct {
		name string
		f    func() ([]bench.Result, error)
	}{
		{"tableI", func() ([]bench.Result, error) { return bench.TableI(stdout, sc) }},
		{"fig2", func() ([]bench.Result, error) { return bench.Fig2Ctx(ctx, stdout, sc, *trials) }},
		{"fig3", func() ([]bench.Result, error) { return bench.Fig3Ctx(ctx, stdout, sc, *trials, threadList) }},
		{"fig4", func() ([]bench.Result, error) { return bench.Fig4Ctx(ctx, stdout, sc, *trials, *low, *high) }},
		{"sizesweep", func() ([]bench.Result, error) { return bench.SizeSweepCtx(ctx, stdout, sc, *trials, *workers) }},
		{"ablation", func() ([]bench.Result, error) { return bench.AblationCtx(ctx, stdout, sc, *trials, *workers) }},
		{"perf", func() ([]bench.Result, error) { return bench.PerfCtx(ctx, stdout, sc, *trials) }},
		{"semi", func() ([]bench.Result, error) { return bench.SemiCtx(ctx, stdout, sc, *trials) }},
		{"conv", func() ([]bench.Result, error) { return bench.ConvergenceCtx(ctx, stdout, sc, *workers) }},
		{"work", func() ([]bench.Result, error) {
			rows, err := bench.WorkCtx(ctx, stdout, sc)
			if err != nil {
				return nil, err
			}
			out := make([]bench.Result, 0, len(rows))
			for _, r := range rows {
				out = append(out, bench.Result{
					Experiment: "work", Dataset: r.Dataset, Algorithm: r.Algorithm,
				})
			}
			return out, nil
		}},
	}
	if *hedge || *exp == "hedge" {
		steps = append(steps, struct {
			name string
			f    func() ([]bench.Result, error)
		}{"hedge", func() ([]bench.Result, error) {
			rows, err := bench.HedgeCtx(ctx, stdout, sc, *hedgeIters, *workers, *chaosSeed)
			if err != nil {
				return nil, err
			}
			out := make([]bench.Result, 0, len(rows))
			for _, r := range rows {
				out = append(out, bench.Result{
					Experiment: "hedge", Dataset: r.Dataset,
					Algorithm: "resilient-" + r.Mode, Workers: *workers,
					Millis: r.P99Ms, MedianMs: r.P50Ms,
				})
			}
			return out, nil
		}})
	}
	for _, s := range steps {
		if err := step(s.name, s.f); err != nil {
			// A -timeout expiry is a requested stop, not a failure: report
			// the rows completed so far and still write -csv/-trace-out.
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				fmt.Fprintf(stdout, "\ntimeout: %v — stopping after %d completed rows\n", err, len(all))
				break
			}
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	if *csvPath != "" {
		if err := writeCSV(*csvPath, all); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote %d rows to %s\n", len(all), *csvPath)
	}
	if *jsonOut != "" {
		paths, err := bench.WriteJSONReports(*jsonOut, all)
		if err != nil {
			return err
		}
		for _, p := range paths {
			fmt.Fprintf(stdout, "wrote %s\n", p)
		}
	}
	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := rec.WriteTimeline(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d spans to %s\n", len(rec.Spans()), *traceOut)
	}
	if flight != nil {
		if *chromeOut != "" {
			if err := writeTo(*chromeOut, flight.WriteChromeTrace); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote chrome trace (%d events, %d dropped) to %s\n",
				flight.Recorded(), flight.Dropped(), *chromeOut)
		}
		if *roundCSV != "" {
			if err := writeTo(*roundCSV, flight.WriteRoundCSV); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d round segments to %s\n", len(flight.RoundSeries()), *roundCSV)
		}
	}
	return nil
}

// writeTo streams one exporter into a freshly created file.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeCSV(path string, rows []bench.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write([]string{"experiment", "dataset", "algorithm", "workers", "millis", "speedup", "edges", "weight"}); err != nil {
		f.Close()
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Experiment, r.Dataset, r.Algorithm,
			strconv.Itoa(r.Workers),
			strconv.FormatFloat(r.Millis, 'f', 3, 64),
			strconv.FormatFloat(r.Speedup, 'f', 3, 64),
			strconv.Itoa(r.Edges),
			strconv.FormatFloat(r.Weight, 'g', -1, 64),
		}
		if err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
