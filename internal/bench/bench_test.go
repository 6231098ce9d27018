package bench

import (
	"bytes"
	"strings"
	"testing"

	"llpmst/internal/mst"
)

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{
		"test": ScaleTest, "s": ScaleS, "small": ScaleS,
		"m": ScaleM, "medium": ScaleM, "l": ScaleL, "large": ScaleL,
	} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("accepted bad scale")
	}
	if ScaleS.String() != "s" || ScaleTest.String() != "test" {
		t.Fatal("Scale.String wrong")
	}
}

func TestDatasetsRegistry(t *testing.T) {
	ds := Datasets(ScaleTest)
	if len(ds) != 4 {
		t.Fatalf("%d datasets, want 4", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		names[d.Name] = true
		g := cachedBuild(ScaleTest, d)
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Fatalf("dataset %s is empty", d.Name)
		}
		// Cache must return the identical graph.
		if g2 := cachedBuild(ScaleTest, d); g2 != g {
			t.Fatalf("dataset %s not cached", d.Name)
		}
	}
	for _, want := range []string{"road", "rmat", "geo", "er"} {
		if !names[want] {
			t.Fatalf("missing dataset %q", want)
		}
	}
	if _, err := GetDataset(ScaleTest, "road"); err != nil {
		t.Fatal(err)
	}
	if _, err := GetDataset(ScaleTest, "nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestMeasureValidatesForest(t *testing.T) {
	g, err := GetDataset(ScaleTest, "road")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Measure(g, mst.AlgKruskal, mst.Options{Workers: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Millis <= 0 || r.Edges != g.NumVertices()-1 {
		t.Fatalf("bad result %+v", r)
	}
	if _, err := Measure(g, "bogus", mst.Options{}, 1); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

func TestTableI(t *testing.T) {
	var buf bytes.Buffer
	rs, err := TableI(&buf, ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("%d rows, want 4", len(rs))
	}
	out := buf.String()
	for _, want := range []string{"Table I", "road", "rmat", "USA-road"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig2(t *testing.T) {
	var buf bytes.Buffer
	rs, err := Fig2(&buf, ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3 algorithms x 2 datasets.
	if len(rs) != 6 {
		t.Fatalf("%d rows, want 6", len(rs))
	}
	// All runs on the same dataset must agree on weight.
	byDS := map[string]float64{}
	for _, r := range rs {
		if w, ok := byDS[r.Dataset]; ok && w != r.Weight {
			t.Fatalf("weight disagreement on %s", r.Dataset)
		}
		byDS[r.Dataset] = r.Weight
		if r.Workers != 1 {
			t.Fatalf("fig2 must be single-threaded, got %d", r.Workers)
		}
	}
	if !strings.Contains(buf.String(), "Fig. 2") {
		t.Fatal("missing table title")
	}
}

func TestFig3(t *testing.T) {
	var buf bytes.Buffer
	threads := []int{1, 2}
	rs, err := Fig3(&buf, ScaleTest, 1, threads)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3*len(threads) {
		t.Fatalf("%d rows, want %d", len(rs), 3*len(threads))
	}
	for _, r := range rs {
		if r.Speedup <= 0 {
			t.Fatalf("missing speedup in %+v", r)
		}
	}
}

func TestFig4(t *testing.T) {
	var buf bytes.Buffer
	rs, err := Fig4(&buf, ScaleTest, 1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 3 datasets x 2 worker counts x 3 algorithms.
	if len(rs) != 18 {
		t.Fatalf("%d rows, want 18", len(rs))
	}
}

func TestSizeSweep(t *testing.T) {
	var buf bytes.Buffer
	rs, err := SizeSweep(&buf, ScaleTest, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 6 { // 1 scale x 2 datasets x 3 algorithms
		t.Fatalf("%d rows, want 6", len(rs))
	}
}

func TestAblation(t *testing.T) {
	var buf bytes.Buffer
	rs, err := Ablation(&buf, ScaleTest, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 18 { // 2 datasets x 9 variants
		t.Fatalf("%d rows, want 18", len(rs))
	}
	// Every variant on one dataset must produce the same forest weight.
	byDS := map[string]float64{}
	for _, r := range rs {
		if w, ok := byDS[r.Dataset]; ok && w != r.Weight {
			t.Fatalf("ablation variant %s changed the MSF weight on %s", r.Algorithm, r.Dataset)
		}
		byDS[r.Dataset] = r.Weight
	}
}

func TestWorkExperiment(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Work(&buf, ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 2 datasets x 6 algorithms
		t.Fatalf("%d rows, want 12", len(rows))
	}
	byKey := map[string]mst.WorkMetrics{}
	for _, r := range rows {
		byKey[r.Dataset+"/"+r.Algorithm] = r.Metrics
	}
	for _, ds := range []string{"road", "rmat"} {
		prim := byKey[ds+"/prim"]
		llp := byKey[ds+"/llp-prim"]
		if llp.HeapOps() >= prim.HeapOps() {
			t.Fatalf("%s: llp-prim heap ops %d not below prim %d", ds, llp.HeapOps(), prim.HeapOps())
		}
		if llp.EarlyFixes == 0 {
			t.Fatalf("%s: no early fixes", ds)
		}
		if byKey[ds+"/llp-boruvka"].JumpAdvances == 0 {
			t.Fatalf("%s: no jump advances", ds)
		}
	}
	if !strings.Contains(buf.String(), "heap-ops") {
		t.Fatal("missing table header")
	}
}

// The hedge table names each family's answering algorithms, most first and
// ties by name.
func TestAnsweredBy(t *testing.T) {
	got := answeredBy(map[mst.Algorithm]int{mst.AlgLLPPrim: 2, mst.AlgLLPBoruvka: 56, mst.AlgKruskal: 2})
	if want := "llp-boruvka 56, kruskal 2, llp-prim 2"; got != want {
		t.Fatalf("answeredBy = %q, want %q", got, want)
	}
}

func TestPrintTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	PrintTable(&buf, "demo", []string{"a", "long-header"}, [][]string{
		{"xxxxxxx", "1"}, {"y", "2"},
	})
	out := buf.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "long-header") {
		t.Fatalf("bad table:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}
