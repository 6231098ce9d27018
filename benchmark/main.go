// Command benchmark measures the mstserve serving stack on three seeded
// workloads. Run it from the repository root through run.sh:
//
//	bash benchmark/run.sh --workload solve-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it drives real HTTP against an mstserve process built from
// the checkout and reports the end-to-end metrics of one workload. With
// --trace 1 it reports the per-layer metrics of every workload: each is
// replayed in process with a span around every call into a layer, and the
// spans are written to .bench_build/spans-<workload>-<seed>.json. Either way
// it prints one "name value unit" line per metric, then a JSON line with
// the correctness verdict, and exits 1 if any answer was wrong.
//
// README.md describes the workloads, the metrics and the layer map.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"
)

// options is everything one invocation runs with.
type options struct {
	root   string        // repository root: holds go.mod and cmd/mstserve
	work   string        // scratch directory for servers and streams
	spans  string        // span JSON path (traced runs)
	seed   int64         // input seed
	window time.Duration // timed window
	log    io.Writer     // diagnostics
	// Test hooks: tiny inputs, and one deliberately wrong oracle answer.
	tiny, corrupt bool
}

func main() {
	// The load generator's own collections would show up as server latency;
	// a larger heap target makes them rarer.
	debug.SetGCPercent(400)
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr, options{}))
}

// benchMain runs the command line args and returns the exit code. Fields
// already set in o (tests set root, spans and the test hooks) are kept.
func benchMain(args []string, stdout, stderr io.Writer, o options) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "timed window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics over HTTP; 1: per-layer metrics from the traced replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	root, err := filepath.Abs(o.root) // "" is the working directory
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	o.root = root
	if o.spans == "" {
		o.spans = filepath.Join(o.root, ".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
	}
	o.seed, o.log = *seed, stderr
	o.window = time.Duration(*seconds * float64(time.Second))
	rep, err := measure(o, w, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// measure builds mstserve into a scratch directory under the root's
// .bench_build and runs w, traced or not.
func measure(o options, w workload, traced bool) (*report, error) {
	if _, err := os.Stat(filepath.Join(o.root, "cmd", "mstserve")); err != nil {
		return nil, errors.New("run from the repository root (cmd/mstserve not found)")
	}
	base := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	o.work = work
	bin, err := buildServer(o.root, work)
	if err != nil {
		return nil, err
	}
	if traced {
		return runTraced(o, bin)
	}
	return runE2E(o, w, bin)
}
