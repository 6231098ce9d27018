// Command mstverify loads a graph, computes its minimum spanning forest
// with a chosen algorithm, cross-checks it against a second algorithm, and
// certifies minimality with the O((n+m) log n) cycle-property verifier.
//
// Usage:
//
//	mstverify -graph road.llpg
//	mstverify -graph road.gr -alg llp-boruvka -against prim -workers 8
//	mstverify -graph dense.llpg -alg semi-boruvka -against kruskal
//
// Exits non-zero if any check fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"llpmst"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mstverify:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mstverify", flag.ContinueOnError)
	var (
		path    = fs.String("graph", "", "input graph (.llpg binary or DIMACS .gr)")
		alg     = fs.String("alg", "llp-boruvka", "algorithm to certify")
		against = fs.String("against", "kruskal", "cross-check algorithm")
		workers = fs.Int("workers", 0, "worker count (0 = auto: one worker per 524288 input elements, up to GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("-graph is required")
	}
	g, err := llpmst.LoadGraph(*path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "loaded %s: %s\n", *path, g.ComputeStats())

	opts := llpmst.Options{Workers: *workers}
	start := time.Now()
	f, err := llpmst.Run(llpmst.Algorithm(*alg), g, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %s in %v\n", *alg, f, time.Since(start))

	ref, err := llpmst.Run(llpmst.Algorithm(*against), g, opts)
	if err != nil {
		return err
	}
	if !f.Equal(ref) {
		return fmt.Errorf("forest differs from %s (weights %g vs %g)", *against, f.Weight, ref.Weight)
	}
	fmt.Fprintf(stdout, "cross-check vs %s: identical edge sets\n", *against)

	start = time.Now()
	if err := llpmst.VerifyMinimum(g, f); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cycle-property certificate: minimal (verified in %v)\n", time.Since(start))
	return nil
}
