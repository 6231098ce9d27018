package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The tests run from benchmark/, so the repository root is its parent.
const repoRoot = ".."

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runTiny runs the command on tiny inputs and returns its exit code and
// parsed last line.
func runTiny(t *testing.T, corrupt bool, args ...string) (int, report, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o := options{root: repoRoot, spans: filepath.Join(t.TempDir(), "spans.json"), tiny: true, corrupt: corrupt}
	code := benchMain(append(args, "--seconds", "0.4"), &stdout, &stderr, o)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%v: last line is not a report: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return code, rep, stdout.String()
}

// checkPrinted asserts that every metric is printed as a "name value unit"
// line and in the JSON report, with its unit.
func checkPrinted(t *testing.T, specs []metricSpec, rep report, out string) {
	t.Helper()
	if len(rep.Metrics) != len(specs) {
		t.Errorf("report has %d metrics, BENCHMARK.json lists %d", len(rep.Metrics), len(specs))
	}
	for _, m := range specs {
		got, ok := rep.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
			continue
		}
		if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + ` \S+ ` + regexp.QuoteMeta(m.Unit) + `$`).MatchString(out) {
			t.Errorf("no %q line with unit %s", m.Name, m.Unit)
		}
	}
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, the code has %d", names, len(workloads))
	}
	want := layerMetricNames()
	if len(bf.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run prints %d", len(bf.PerLayer), len(want))
	}
	for i, m := range bf.PerLayer {
		if m.Name != want[i] || m.Unit != unitOf(m.Name) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), the code %s (%s)", i, m.Name, m.Unit, want[i], unitOf(want[i]))
		}
	}
}

// TestReplayMirrorsServerDefaults parses the built mstserve's -h output:
// every flag the in-process replay mirrors must default to the value the
// replay uses.
func TestReplayMirrorsServerDefaults(t *testing.T) {
	if _, err := parseReplayConfig(serverDefaults); err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(repoRoot, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// -h exits non-zero after printing the usage; only the text matters.
	usage, _ := exec.Command(bin, "-h").CombinedOutput()
	blocks := map[string]string{}
	for _, b := range strings.Split(string(usage), "\n  -")[1:] {
		name, rest, _ := strings.Cut(b, " ")
		blocks[name] = rest
	}
	defaultRE := regexp.MustCompile(`\(default "?([^")]*)"?\)`)
	for name, want := range serverDefaults {
		block, ok := blocks[name]
		if !ok {
			t.Errorf("mstserve has no -%s flag", name)
			continue
		}
		got := "0" // the flag package omits zero defaults
		if m := defaultRE.FindStringSubmatch(block); m != nil {
			got = m[1]
		}
		if got != want {
			t.Errorf("-%s: mstserve defaults to %q, the replay mirrors %q", name, got, want)
		}
	}
}

// TestAnswersAreChecked corrupts one oracle answer per workload (an edge
// ID, a weight, a tree count) and expects failures and exit code 1.
func TestAnswersAreChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("boots mstserve")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, rep, _ := runTiny(t, true, "--workload", w.name, "--trace", "0")
			if code != 1 || rep.Correct || rep.Failed == 0 {
				t.Errorf("corrupted oracle: exit %d, correct %v, failed %d of %d", code, rep.Correct, rep.Failed, rep.Attempted)
			}
		})
	}
}

// TestSmokeEndToEnd runs every workload briefly over HTTP.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots mstserve")
	}
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, rep, out := runTiny(t, false, "--workload", w.name, "--trace", "0")
			if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("exit %d, correct %v, failed %d of %d\n%s", code, rep.Correct, rep.Failed, rep.Attempted, out)
			}
			checkPrinted(t, bf.EndToEnd, rep, out)
		})
	}
}

// TestSmokeTraced runs the traced mode, which replays every workload.
func TestSmokeTraced(t *testing.T) {
	bf := readBenchmarkFile(t)
	code, rep, out := runTiny(t, false, "--workload", workloads[0].name, "--trace", "1")
	if code != 0 || !rep.Correct || rep.Failed != 0 {
		t.Fatalf("exit %d, correct %v, failed %d of %d\n%s", code, rep.Correct, rep.Failed, rep.Attempted, out)
	}
	checkPrinted(t, bf.PerLayer, rep, out)
}
