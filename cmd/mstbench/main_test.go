package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	for _, exp := range []string{"tableI", "fig2", "work"} {
		var out bytes.Buffer
		if err := run([]string{"-exp", exp, "-scale", "test", "-trials", "1"}, &out); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(out.String(), "==") {
			t.Fatalf("%s: no table rendered:\n%s", exp, out.String())
		}
	}
}

func TestRunFig3CustomThreads(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig3", "-scale", "test", "-trials", "1", "-threads", "1,2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 3") {
		t.Fatal("missing Fig. 3 table")
	}
}

func TestRunCSVExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.csv")
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-scale", "test", "-trials", "1", "-csv", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 7 { // header + 6 fig2 rows
		t.Fatalf("%d CSV records, want 7", len(records))
	}
	if records[0][0] != "experiment" || records[1][0] != "fig2" {
		t.Fatalf("CSV content wrong: %v", records[:2])
	}
}

func TestRunConvergenceArtifacts(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	rounds := filepath.Join(dir, "rounds.csv")
	var out bytes.Buffer
	if err := run([]string{"-exp", "conv", "-scale", "test", "-trials", "1",
		"-chrome-trace", trace, "-round-csv", rounds}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Convergence") {
		t.Fatalf("no convergence table rendered:\n%s", out.String())
	}

	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range tf.TraceEvents {
		phases[ev.Ph]++
	}
	for _, ph := range []string{"M", "X", "i"} {
		if phases[ph] == 0 {
			t.Errorf("chrome trace has no %q events (%v)", ph, phases)
		}
	}

	f, err := os.Open(rounds)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 2 {
		t.Fatalf("round CSV has %d records, want header + rows", len(records))
	}
	header := strings.Join(records[0], ",")
	for _, col := range []string{"round", "start_ms", "dur_ms"} {
		if !strings.Contains(header, col) {
			t.Errorf("round CSV header %q missing %q", header, col)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "bogus", "-scale", "test"}, &out); err == nil {
		t.Fatal("bogus experiment accepted")
	}
	if err := run([]string{"-exp", "dist", "-scale", "test"}, &out); err == nil || err.Error() != `unknown experiment "dist"` {
		t.Fatalf("-exp dist: got %v, want unknown experiment", err)
	}
	if err := run([]string{"-scale", "bogus"}, &out); err == nil {
		t.Fatal("bogus scale accepted")
	}
	if err := run([]string{"-exp", "fig3", "-scale", "test", "-threads", "x"}, &out); err == nil {
		t.Fatal("bogus threads accepted")
	}
	if err := run([]string{"-exp", "fig2", "-scale", "test", "-trials", "1", "-csv", "/nonexistent-dir/x.csv"}, &out); err == nil {
		t.Fatal("unwritable CSV path accepted")
	}
}
