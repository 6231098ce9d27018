package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"llpmst"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	g := llpmst.GenerateRoadNetwork(16, 16, 0.3, 5)
	path := filepath.Join(t.TempDir(), "g.llpg")
	if err := llpmst.SaveBinary(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVerifyHappyPath(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	if err := run([]string{"-graph", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"loaded", "identical edge sets", "certificate: minimal"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestVerifyEveryAlgorithmPair(t *testing.T) {
	path := writeTestGraph(t)
	for _, alg := range []string{"prim", "llp-prim", "llp-prim-par", "boruvka-par"} {
		var out bytes.Buffer
		if err := run([]string{"-graph", path, "-alg", alg, "-against", "boruvka", "-workers", "2"}, &out); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}

func TestVerifyErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing -graph accepted")
	}
	if err := run([]string{"-graph", "/nope.llpg"}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
	path := writeTestGraph(t)
	if err := run([]string{"-graph", path, "-alg", "bogus"}, &out); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	if err := run([]string{"-graph", path, "-against", "bogus"}, &out); err == nil {
		t.Fatal("bogus cross-check algorithm accepted")
	}
	// ghs, kkt and filter-kruskal name no algorithm.
	for _, alg := range []string{"ghs", "kkt", "filter-kruskal"} {
		want := fmt.Sprintf("mst: unknown algorithm %q", alg)
		if err := run([]string{"-graph", path, "-alg", alg}, &out); err == nil || err.Error() != want {
			t.Fatalf("-alg %s: got %v, want %s", alg, err, want)
		}
	}
}
