package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// The acceptance gate for the tentpole: with the recorder ENABLED, the hot
// path — counter deltas, gauge samples, span begin/end, round marks —
// allocates nothing. Ring slots are claimed with one atomic add and filled
// in place; span end closures are cached per cursor after first use.
func TestFlightRecorderZeroAllocs(t *testing.T) {
	rec := NewFlightRecorder(2, 1<<10)
	cur := rec.Worker(1)
	allocs := testing.AllocsPerRun(1000, func() {
		end := cur.Span("phase")
		cur.Count(CtrSchedPush, 1)
		cur.Count(CtrRounds, 3)
		cur.Gauge(GaugeQueueDepth, 17)
		MarkRound(cur, 4)
		end()
	})
	if allocs != 0 {
		t.Fatalf("flight recorder hot path allocates: %v allocs/op", allocs)
	}
	// The driver facade must be just as free.
	var col Collector = rec
	allocs = testing.AllocsPerRun(1000, func() {
		end := col.Span("driver-phase")
		col.Count(CtrHeapPop, 2)
		col.Gauge(GaugeHeapSize, 9)
		end()
	})
	if allocs != 0 {
		t.Fatalf("driver facade hot path allocates: %v allocs/op", allocs)
	}
}

func TestFlightRecorderWorkerAttribution(t *testing.T) {
	rec := NewFlightRecorder(3, 256)
	rec.Count(CtrRounds, 1) // driver track
	rec.Worker(0).Count(CtrSchedPop, 10)
	rec.Worker(1).Count(CtrSchedPop, 20)
	rec.Worker(2).Count(CtrSchedPop, 30)
	rec.Worker(5).Count(CtrSchedPop, 1)    // folds to 5 % 3 == worker 2
	rec.Worker(-1).Count(CtrSchedPop, 100) // driver again

	if got := rec.Counter(CtrSchedPop); got != 161 {
		t.Fatalf("total sched.pop = %d, want 161", got)
	}
	if got := rec.CounterWorker(CtrSchedPop, 1); got != 20 {
		t.Fatalf("worker 1 sched.pop = %d, want 20", got)
	}
	if got := rec.CounterWorker(CtrSchedPop, 2); got != 31 {
		t.Fatalf("worker 2 sched.pop = %d, want 31 (folded)", got)
	}
	if got := rec.CounterWorker(CtrSchedPop, -1); got != 100 {
		t.Fatalf("driver sched.pop = %d, want 100", got)
	}

	workers := map[int16]bool{}
	for _, e := range rec.Events() {
		workers[e.Worker] = true
	}
	for _, w := range []int16{-1, 0, 1, 2} {
		if !workers[w] {
			t.Fatalf("no events attributed to worker %d (saw %v)", w, workers)
		}
	}
}

func TestFlightRecorderGauges(t *testing.T) {
	rec := NewFlightRecorder(2, 256)
	rec.Worker(0).Gauge(GaugeFrontier, 50)
	rec.Worker(1).Gauge(GaugeFrontier, 90)
	rec.Worker(0).Gauge(GaugeFrontier, 10)

	if got := rec.GaugeMax(GaugeFrontier); got != 90 {
		t.Fatalf("gauge max = %d, want 90", got)
	}
	if v, ok := rec.GaugeLast(GaugeFrontier); !ok || v != 10 {
		t.Fatalf("gauge last = %d,%v, want 10,true", v, ok)
	}
	if _, ok := rec.GaugeLast(GaugeLiveEdges); ok {
		t.Fatal("never-sampled gauge reports ok")
	}
}

func TestFlightRecorderRingWrap(t *testing.T) {
	rec := NewFlightRecorder(1, 64) // tiny ring
	cur := rec.Worker(0)
	const n = 1000
	for i := 0; i < n; i++ {
		cur.Count(CtrSchedPush, 1)
	}
	// Aggregates are exact despite overflow.
	if got := rec.Counter(CtrSchedPush); got != n {
		t.Fatalf("counter after wrap = %d, want %d", got, n)
	}
	if got := rec.Dropped(); got != n-64 {
		t.Fatalf("dropped = %d, want %d", got, n-64)
	}
	if got := rec.Recorded(); got != n {
		t.Fatalf("recorded = %d, want %d", got, n)
	}
	// The surviving events are exactly the newest 64, contiguous.
	events := rec.Events()
	if len(events) != 64 {
		t.Fatalf("surviving events = %d, want 64", len(events))
	}
	for i, e := range events {
		if want := uint64(n - 64 + i); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, want)
		}
	}
}

func TestFlightRecorderRoundSeries(t *testing.T) {
	rec := NewFlightRecorder(1, 1024)
	// Simulate two Boruvka rounds: marker, live-edge gauge, counter work.
	MarkRound(rec, 1)
	rec.Gauge(GaugeLiveEdges, 100)
	rec.Count(CtrJumpAdvances, 7)
	MarkRound(rec, 2)
	rec.Gauge(GaugeLiveEdges, 40)
	rec.Gauge(GaugeLiveEdges, 38) // last sample wins within the segment
	rec.Count(CtrJumpAdvances, 3)

	series := rec.RoundSeries()
	if len(series) != 2 {
		t.Fatalf("got %d round segments, want 2: %+v", len(series), series)
	}
	if series[0].Round != 1 || series[1].Round != 2 {
		t.Fatalf("round numbers: %d, %d", series[0].Round, series[1].Round)
	}
	if v, ok := series[0].Gauge(GaugeLiveEdges); !ok || v != 100 {
		t.Fatalf("round 1 live edges = %d,%v", v, ok)
	}
	if v, ok := series[1].Gauge(GaugeLiveEdges); !ok || v != 38 {
		t.Fatalf("round 2 live edges = %d,%v (want last sample 38)", v, ok)
	}
	if series[0].Counter(CtrJumpAdvances) != 7 || series[1].Counter(CtrJumpAdvances) != 3 {
		t.Fatalf("per-round jump advances: %d, %d",
			series[0].Counter(CtrJumpAdvances), series[1].Counter(CtrJumpAdvances))
	}
	if _, ok := series[0].Gauge(GaugeFrontier); ok {
		t.Fatal("unsampled gauge reports seen")
	}
}

// Round numbering restarting (a second algorithm run on the same recorder)
// must produce new segments, not merge into the earlier ones.
func TestFlightRecorderRoundSeriesRestart(t *testing.T) {
	rec := NewFlightRecorder(1, 1024)
	MarkRound(rec, 1)
	rec.Count(CtrRounds, 1)
	MarkRound(rec, 2)
	rec.Count(CtrRounds, 1)
	MarkRound(rec, 1) // second run restarts numbering
	rec.Count(CtrRounds, 1)

	series := rec.RoundSeries()
	if len(series) != 3 {
		t.Fatalf("got %d segments, want 3 (restart must not merge): %+v", len(series), series)
	}
	if series[2].Round != 1 {
		t.Fatalf("restarted segment round = %d, want 1", series[2].Round)
	}
}

func TestFlightRecorderSpanSummaries(t *testing.T) {
	rec := NewFlightRecorder(1, 1024)
	cur := rec.Worker(0)
	for i := 0; i < 20; i++ {
		end := cur.Span("work")
		time.Sleep(100 * time.Microsecond)
		end()
	}
	s, ok := rec.SpanSummary("work")
	if !ok {
		t.Fatal("span summary missing")
	}
	if s.Count != 20 {
		t.Fatalf("span count = %d, want 20", s.Count)
	}
	if s.Sum < 2*time.Millisecond {
		t.Fatalf("span sum = %v, want >= 2ms", s.Sum)
	}
	if s.P50 <= 0 || s.P95 < s.P50 || s.P99 < s.P95 {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", s.P50, s.P95, s.P99)
	}
	if _, ok := rec.SpanSummary("never-opened"); ok {
		t.Fatal("summary for unknown span reports ok")
	}
	all := rec.SpanSummaries()
	if len(all) != 1 || all[0].Name != "work" {
		t.Fatalf("summaries: %+v", all)
	}
}

// Span names beyond the intern table's capacity share the overflow bucket
// instead of growing without bound.
func TestFlightRecorderSpanNameOverflow(t *testing.T) {
	rec := NewFlightRecorder(1, 4096)
	names := make([]byte, 0, 8)
	for i := 0; i < maxSpanNames+20; i++ {
		names = append(names[:0], "span-"...)
		rec.Span(string(append(names, byte('a'+i%26), byte('a'+i/26))))()
	}
	var overflow bool
	for _, s := range rec.SpanSummaries() {
		if s.Name == "~overflow" {
			overflow = true
		}
	}
	if !overflow {
		t.Fatal("overflow bucket never used despite > maxSpanNames names")
	}
}

func TestFlightRecorderChromeTrace(t *testing.T) {
	rec := NewFlightRecorder(2, 1024)
	MarkRound(rec, 1)
	end := rec.Worker(0).Span("mwe")
	rec.Worker(0).Gauge(GaugeFrontier, 10)
	end()
	MarkRound(rec, 2)
	rec.Worker(1).Span("contract")()

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var sawThreadNames, sawSpan0, sawSpan1, sawRound int
	for _, e := range decoded.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			sawThreadNames++
		case e.Ph == "X" && e.Name == "mwe" && e.TID == 1: // worker 0 → tid 1
			sawSpan0++
		case e.Ph == "X" && e.Name == "contract" && e.TID == 2:
			sawSpan1++
		case e.Ph == "i" && strings.HasPrefix(e.Name, "round "):
			sawRound++
		}
	}
	if sawThreadNames != 3 { // driver + 2 workers
		t.Fatalf("thread_name metadata events = %d, want 3", sawThreadNames)
	}
	if sawSpan0 != 1 || sawSpan1 != 1 {
		t.Fatalf("span X events on worker tracks: %d, %d (want 1, 1)", sawSpan0, sawSpan1)
	}
	if sawRound != 2 {
		t.Fatalf("round instant events = %d, want 2", sawRound)
	}
}

func TestFlightRecorderPrometheus(t *testing.T) {
	rec := NewFlightRecorder(2, 1024)
	rec.Worker(0).Count(CtrSchedPush, 5)
	rec.Worker(1).Gauge(GaugeQueueDepth, 7)
	rec.Span("phase")()

	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	// Structural validity of the exposition format: every non-comment line
	// is `name{labels} value` or `name value`, every family has TYPE.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE llpmst_events_total counter",
		`llpmst_events_total{counter="sched.push",worker="0"} 5`,
		`llpmst_gauge_last{gauge="sched.queue_depth",worker="1"} 7`,
		`llpmst_gauge_max{gauge="sched.queue_depth",worker="1"} 7`,
		"# TYPE llpmst_span_duration_seconds histogram",
		`llpmst_span_duration_seconds_count{span="phase"} 1`,
		`le="+Inf"`,
		"llpmst_events_dropped_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestFlightRecorderProgressJSON(t *testing.T) {
	rec := NewFlightRecorder(1, 1024)
	MarkRound(rec, 3)
	rec.Count(CtrRounds, 3)
	rec.Gauge(GaugeLiveEdges, 42)
	rec.Span("phase")()

	var buf bytes.Buffer
	if err := rec.WriteProgress(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Round    int64            `json:"round"`
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
		Spans    []struct {
			Name  string `json:"name"`
			Count int64  `json:"count"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("progress is not valid JSON: %v\n%s", err, buf.String())
	}
	if snap.Round != 3 {
		t.Fatalf("round = %d, want 3", snap.Round)
	}
	if snap.Counters["rounds"] != 3 {
		t.Fatalf("counters: %+v", snap.Counters)
	}
	if snap.Gauges["live_edges"] != 42 {
		t.Fatalf("gauges: %+v", snap.Gauges)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "phase" || snap.Spans[0].Count != 1 {
		t.Fatalf("spans: %+v", snap.Spans)
	}
}

func TestFlightRecorderRoundCSV(t *testing.T) {
	rec := NewFlightRecorder(1, 1024)
	MarkRound(rec, 1)
	rec.Gauge(GaugeLiveEdges, 100)
	rec.Count(CtrJumpAdvances, 4)
	MarkRound(rec, 2)
	rec.Gauge(GaugeLiveEdges, 30)

	var buf bytes.Buffer
	if err := rec.WriteRoundCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "segment" || header[1] != "round" {
		t.Fatalf("csv header: %v", header)
	}
	// Only columns with data appear; jump_advances and live_edges must,
	// heap_push (never counted here) must not.
	if !strings.Contains(lines[0], "jump_advances") || !strings.Contains(lines[0], "live_edges") {
		t.Fatalf("csv header missing active columns: %s", lines[0])
	}
	if strings.Contains(lines[0], "heap_push") {
		t.Fatalf("csv header includes inactive column: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,1,") || !strings.HasPrefix(lines[2], "1,2,") {
		t.Fatalf("csv rows:\n%s", buf.String())
	}
	// Every row has the header's column count.
	for _, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != len(header) {
			t.Fatalf("row has %d columns, header has %d: %s", got, len(header), line)
		}
	}
}

// Satellite: the -race stress test. Many goroutines hammer one recorder's
// counters/gauges through per-worker cursors and the shared facade; totals
// must be exact (no lost counts) and each shard's surviving sequence
// numbers must be the contiguous newest suffix of a monotone sequence.
func TestFlightRecorderConcurrentStress(t *testing.T) {
	const (
		workers  = 8
		perW     = 2000
		eventCap = 1 << 15 // large enough that nothing drops
	)
	rec := NewFlightRecorder(workers, eventCap)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := rec.Worker(w)
			for i := 0; i < perW; i++ {
				end := cur.Span("stress")
				cur.Count(CtrSchedPush, 1)
				cur.Count(CtrSchedPop, 2)
				cur.Gauge(GaugeQueueDepth, int64(i))
				end()
			}
		}(w)
	}
	// The driver facade is hit concurrently too (Count/Gauge are the
	// concurrent-safe subset; spans stay per-cursor).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perW; i++ {
			rec.Count(CtrRounds, 1)
		}
	}()
	wg.Wait()

	if got := rec.Counter(CtrSchedPush); got != workers*perW {
		t.Fatalf("sched.push = %d, want %d (lost counts)", got, workers*perW)
	}
	if got := rec.Counter(CtrSchedPop); got != 2*workers*perW {
		t.Fatalf("sched.pop = %d, want %d", got, 2*workers*perW)
	}
	if got := rec.Counter(CtrRounds); got != perW {
		t.Fatalf("rounds = %d, want %d", got, perW)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("dropped %d events despite capacity", rec.Dropped())
	}

	// Per-shard sequence numbers are contiguous and monotone.
	perShard := map[int16][]uint64{}
	for _, e := range rec.Events() {
		perShard[e.Worker] = append(perShard[e.Worker], e.Seq)
	}
	for w, seqs := range perShard {
		for i := 1; i < len(seqs); i++ {
			if seqs[i] != seqs[i-1]+1 {
				t.Fatalf("worker %d: seq %d follows %d (not contiguous)", w, seqs[i], seqs[i-1])
			}
		}
		if seqs[0] != 0 {
			t.Fatalf("worker %d: first surviving seq = %d, want 0 (nothing dropped)", w, seqs[0])
		}
	}
	// Each worker recorded 5 events per iteration: begin, count, count,
	// gauge, end.
	for w := 0; w < workers; w++ {
		if got := len(perShard[int16(w)]); got != 5*perW {
			t.Fatalf("worker %d recorded %d events, want %d", w, got, 5*perW)
		}
	}
}

// The Recording compatibility facade gets the same concurrent hammering
// (same satellite): totals exact, span list complete.
func TestRecordingConcurrentStress(t *testing.T) {
	rec := NewRecording()
	const workers, perW = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				end := rec.Span("stress")
				rec.Count(CtrEarlyFix, 1)
				rec.Gauge(GaugeFrontier, int64(w*perW+i))
				end()
			}
		}(w)
	}
	wg.Wait()
	if got := rec.Counter(CtrEarlyFix); got != workers*perW {
		t.Fatalf("earlyfix = %d, want %d", got, workers*perW)
	}
	if got := rec.GaugeMax(GaugeFrontier); got != workers*perW-1 {
		t.Fatalf("frontier max = %d, want %d", got, workers*perW-1)
	}
	if got := len(rec.Spans()); got != workers*perW {
		t.Fatalf("spans = %d, want %d", got, workers*perW)
	}
}

func TestTee(t *testing.T) {
	a, b := NewFlightRecorder(1, 256), NewRecording()
	col := Tee(a, b)
	col.Count(CtrRounds, 2)
	col.Gauge(GaugeLiveEdges, 9)
	col.Span("both")()
	MarkRound(col, 1)

	if a.Counter(CtrRounds) != 2 || b.Counter(CtrRounds) != 2 {
		t.Fatalf("tee counts: %d, %d", a.Counter(CtrRounds), b.Counter(CtrRounds))
	}
	if a.GaugeMax(GaugeLiveEdges) != 9 || b.GaugeMax(GaugeLiveEdges) != 9 {
		t.Fatal("tee gauges diverge")
	}
	if _, ok := a.SpanSummary("both"); !ok {
		t.Fatal("tee span missing on flight side")
	}
	if len(b.Spans()) != 1 {
		t.Fatal("tee span missing on recording side")
	}
	if a.CurrentRound() != 1 {
		t.Fatal("tee did not forward round mark")
	}
	// Worker attribution flows through the tee to the side that supports it.
	ForWorker(col, 0).Count(CtrSchedPop, 3)
	if a.CounterWorker(CtrSchedPop, 0) != 3 {
		t.Fatal("tee did not forward worker attribution")
	}
	if b.Counter(CtrSchedPop) != 3 {
		t.Fatal("tee dropped unattributed side")
	}

	// Degenerate sides collapse.
	if Tee(nil, b) != Collector(b) {
		t.Fatal("Tee(nil, b) != b")
	}
	if Tee(a, Nop{}) != Collector(a) {
		t.Fatal("Tee(a, Nop) != a")
	}
	if _, ok := Tee(nil, nil).(Nop); !ok {
		t.Fatal("Tee(nil, nil) is not Nop")
	}
}

// MarkRound/ForWorker against a collector that supports neither must be
// free and safe.
func TestMarkRoundForWorkerOnPlainCollector(t *testing.T) {
	rec := NewRecording()
	MarkRound(rec, 7) // no-op: Recording keeps totals only
	if got := ForWorker(rec, 3); got != Collector(rec) {
		t.Fatal("ForWorker on plain collector did not pass through")
	}
	var nop Collector = Nop{}
	MarkRound(nop, 1)
	if got := ForWorker(nop, 0); got != nop {
		t.Fatal("ForWorker(Nop) did not pass through")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		MarkRound(nop, 2)
		_ = ForWorker(nop, 1)
	})
	if allocs != 0 {
		t.Fatalf("MarkRound/ForWorker on Nop allocates: %v", allocs)
	}
}
