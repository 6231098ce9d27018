package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Exporters for the FlightRecorder: Chrome Trace Event JSON (Perfetto /
// chrome://tracing), Prometheus text exposition, a live progress snapshot
// (JSON), and a per-round CSV for convergence plots. All four read only the
// recorder's atomics and ring snapshots, so they are safe to call while a
// run is in flight; mid-run output is a consistent sample, post-run output
// is exact (modulo ring overflow, which is reported, never silent).

// chromeEvent is one entry of the Trace Event Format's traceEvents array.
// Only the fields the format requires for each phase kind are emitted.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`    // instant-event scope
	Args map[string]any `json:"args,omitempty"` // metadata / counter values
}

// chromeTID maps a recorded worker id to a Chrome trace thread id: the
// driver track (worker -1) becomes tid 0, worker w becomes tid w+1.
func chromeTID(worker int16) int { return int(worker) + 1 }

// WriteChromeTrace writes the recorder's surviving events as Chrome Trace
// Event JSON: one named thread track per worker plus a driver track, spans
// as complete ("X") events, round markers as global instant events, and
// gauge samples as counter ("C") series. Load the output in Perfetto or
// chrome://tracing.
//
// Spans are emitted from EvSpanEnd events, which carry their duration —
// pairing begin/end across a wrapped ring would drop or corrupt spans,
// whereas a surviving end event is always self-contained.
func (r *FlightRecorder) WriteChromeTrace(w io.Writer) error {
	events := r.Events()
	out := make([]chromeEvent, 0, len(events)+len(r.cursors)+1)

	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "llpmst"},
	})
	out = append(out, chromeEvent{
		Name: "thread_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "driver"},
	})
	for i := 1; i < len(r.cursors); i++ {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: i,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", i-1)},
		})
	}

	for _, e := range events {
		switch e.Kind {
		case EvSpanEnd:
			start := e.TS - e.Value
			if start < 0 {
				start = 0
			}
			out = append(out, chromeEvent{
				Name: r.SpanName(e.ID),
				Ph:   "X",
				TS:   float64(start) / 1e3,
				Dur:  float64(e.Value) / 1e3,
				PID:  1,
				TID:  chromeTID(e.Worker),
				Args: map[string]any{"round": e.Round},
			})
		case EvRound:
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("round %d", e.Value),
				Ph:   "i",
				TS:   float64(e.TS) / 1e3,
				PID:  1,
				TID:  chromeTID(e.Worker),
				S:    "g",
			})
		case EvGauge:
			out = append(out, chromeEvent{
				Name: Gauge(e.ID).String(),
				Ph:   "C",
				TS:   float64(e.TS) / 1e3,
				PID:  1,
				TID:  chromeTID(e.Worker),
				Args: map[string]any{"value": e.Value},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": out})
}

// promEscape escapes a Prometheus label value.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promWorker renders a worker id as a label value ("driver" for -1).
func promWorker(i int) string {
	if i == 0 {
		return "driver"
	}
	return fmt.Sprintf("%d", i-1)
}

// WritePrometheus writes the recorder's aggregates in Prometheus text
// exposition format (version 0.0.4): per-worker counter totals, last and
// max gauge samples, span-duration histograms with cumulative log-2
// buckets, and the recorded/dropped event totals. Reads only atomics, so
// serving this from an HTTP handler during a run is safe and cheap.
func (r *FlightRecorder) WritePrometheus(w io.Writer) error {
	var b strings.Builder

	b.WriteString("# HELP llpmst_events_total Counter deltas accumulated per worker.\n")
	b.WriteString("# TYPE llpmst_events_total counter\n")
	for c := Counter(0); c < NumCounters; c++ {
		for i := range r.shards {
			v := r.shards[i].counters[c].Load()
			if v == 0 {
				continue
			}
			fmt.Fprintf(&b, "llpmst_events_total{counter=%q,worker=%q} %d\n",
				promEscape(c.String()), promWorker(i), v)
		}
	}

	b.WriteString("# HELP llpmst_gauge_last Most recent gauge sample per worker.\n")
	b.WriteString("# TYPE llpmst_gauge_last gauge\n")
	for g := Gauge(0); g < NumGauges; g++ {
		for i := range r.shards {
			if r.shards[i].gaugeTS[g].Load() == 0 {
				continue
			}
			fmt.Fprintf(&b, "llpmst_gauge_last{gauge=%q,worker=%q} %d\n",
				promEscape(g.String()), promWorker(i), r.shards[i].gaugeLast[g].Load())
		}
	}

	b.WriteString("# HELP llpmst_gauge_max Maximum gauge sample per worker.\n")
	b.WriteString("# TYPE llpmst_gauge_max gauge\n")
	for g := Gauge(0); g < NumGauges; g++ {
		for i := range r.shards {
			if r.shards[i].gaugeTS[g].Load() == 0 {
				continue
			}
			fmt.Fprintf(&b, "llpmst_gauge_max{gauge=%q,worker=%q} %d\n",
				promEscape(g.String()), promWorker(i), r.shards[i].gaugeMax[g].Load())
		}
	}

	b.WriteString("# HELP llpmst_span_duration_seconds Span latency histogram (log-2 nanosecond buckets).\n")
	b.WriteString("# TYPE llpmst_span_duration_seconds histogram\n")
	names := r.names.snapshot()
	for id, name := range names {
		h := &r.hists[id]
		count := h.count.Load()
		if count == 0 {
			continue
		}
		label := promEscape(name)
		var cum int64
		for bkt := 0; bkt < histBuckets; bkt++ {
			n := h.buckets[bkt].Load()
			if n == 0 {
				continue
			}
			cum += n
			upper := float64(int64(1)<<uint(bkt)) / 1e9
			fmt.Fprintf(&b, "llpmst_span_duration_seconds_bucket{span=%q,le=%q} %d\n",
				label, fmt.Sprintf("%g", upper), cum)
		}
		fmt.Fprintf(&b, "llpmst_span_duration_seconds_bucket{span=%q,le=\"+Inf\"} %d\n", label, count)
		fmt.Fprintf(&b, "llpmst_span_duration_seconds_sum{span=%q} %g\n",
			label, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(&b, "llpmst_span_duration_seconds_count{span=%q} %d\n", label, count)
	}

	b.WriteString("# HELP llpmst_events_recorded_total Events written into the flight-recorder rings.\n")
	b.WriteString("# TYPE llpmst_events_recorded_total counter\n")
	fmt.Fprintf(&b, "llpmst_events_recorded_total %d\n", r.Recorded())
	b.WriteString("# HELP llpmst_events_dropped_total Events overwritten by ring wrap-around.\n")
	b.WriteString("# TYPE llpmst_events_dropped_total counter\n")
	fmt.Fprintf(&b, "llpmst_events_dropped_total %d\n", r.Dropped())

	_, err := io.WriteString(w, b.String())
	return err
}

// progressSnapshot is the JSON shape served at /progress: a one-glance view
// of a run in flight.
type progressSnapshot struct {
	ElapsedMS float64          `json:"elapsed_ms"`
	Round     int64            `json:"round"`
	Recorded  uint64           `json:"events_recorded"`
	Dropped   uint64           `json:"events_dropped"`
	Counters  map[string]int64 `json:"counters"`
	Gauges    map[string]int64 `json:"gauges"`
	Spans     []progressSpan   `json:"spans"`
}

type progressSpan struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	SumMS float64 `json:"sum_ms"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// WriteProgress writes a live JSON snapshot: elapsed time, current round,
// nonzero counter totals, latest gauge samples, and span latency digests.
func (r *FlightRecorder) WriteProgress(w io.Writer) error {
	snap := progressSnapshot{
		ElapsedMS: float64(r.now()) / 1e6,
		Round:     r.CurrentRound(),
		Recorded:  r.Recorded(),
		Dropped:   r.Dropped(),
		Counters:  make(map[string]int64),
		Gauges:    make(map[string]int64),
	}
	for c := Counter(0); c < NumCounters; c++ {
		if v := r.Counter(c); v != 0 {
			snap.Counters[c.String()] = v
		}
	}
	for g := Gauge(0); g < NumGauges; g++ {
		if v, ok := r.GaugeLast(g); ok {
			snap.Gauges[g.String()] = v
		}
	}
	for _, s := range r.SpanSummaries() {
		snap.Spans = append(snap.Spans, progressSpan{
			Name:  s.Name,
			Count: s.Count,
			SumMS: float64(s.Sum) / 1e6,
			P50MS: float64(s.P50) / 1e6,
			P95MS: float64(s.P95) / 1e6,
			P99MS: float64(s.P99) / 1e6,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(snap)
}

// WriteRoundCSV writes the RoundSeries as CSV for convergence plots: one
// row per round segment with the segment's bounds plus a column for every
// counter or gauge that is nonzero anywhere in the series (so CSVs stay
// narrow: a Boruvka run does not drag along heap columns). Columns appear in
// enum order, counters before gauges.
func (r *FlightRecorder) WriteRoundCSV(w io.Writer) error {
	series := r.RoundSeries()

	var ctrCols []Counter
	for c := Counter(0); c < NumCounters; c++ {
		for i := range series {
			if series[i].Counters[c] != 0 {
				ctrCols = append(ctrCols, c)
				break
			}
		}
	}
	var gCols []Gauge
	for g := Gauge(0); g < NumGauges; g++ {
		for i := range series {
			if series[i].GaugeSeen[g] {
				gCols = append(gCols, g)
				break
			}
		}
	}

	var b strings.Builder
	b.WriteString("segment,round,start_ms,dur_ms")
	for _, c := range ctrCols {
		b.WriteByte(',')
		b.WriteString(csvName(c.String()))
	}
	for _, g := range gCols {
		b.WriteByte(',')
		b.WriteString(csvName(g.String()))
	}
	b.WriteByte('\n')

	for i, rs := range series {
		fmt.Fprintf(&b, "%d,%d,%.3f,%.3f", i, rs.Round,
			float64(rs.Start)/float64(time.Millisecond),
			float64(rs.End-rs.Start)/float64(time.Millisecond))
		for _, c := range ctrCols {
			fmt.Fprintf(&b, ",%d", rs.Counters[c])
		}
		for _, g := range gCols {
			if rs.GaugeSeen[g] {
				fmt.Fprintf(&b, ",%d", rs.Gauges[g])
			} else {
				b.WriteByte(',')
			}
		}
		b.WriteByte('\n')
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// csvName makes an enum name CSV-header-friendly (dots to underscores).
func csvName(s string) string { return strings.ReplaceAll(s, ".", "_") }
