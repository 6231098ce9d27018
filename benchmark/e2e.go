package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"llpmst/internal/stream"
)

// setupReps is how many times an e2e run boots and prepares its server;
// setup_s is the median, and the last setup serves the timed window.
const setupReps = 5

// httpTarget sends a workload's ops to an mstserve process.
type httpTarget struct {
	srv *server
	cli *client
}

func (t *httpTarget) url(format string, args ...any) string {
	return t.srv.base + fmt.Sprintf(format, args...)
}

func (t *httpTarget) putGraph(id string, data []byte) error {
	_, err := t.cli.do(context.Background(), http.MethodPut, t.url("/graphs/%s", id), data)
	return err
}

func (t *httpTarget) solve(id string, edges bool) (solveAnswer, error) {
	u := t.url("/graphs/%s/solve", id)
	if edges {
		u += "?edges=1"
	}
	var ans solveAnswer
	body, err := t.cli.do(context.Background(), http.MethodPost, u, nil)
	if err == nil {
		err = json.Unmarshal(body, &ans)
	}
	return ans, err
}

func (t *httpTarget) createStream(id string, vertices int) error {
	body := []byte(fmt.Sprintf(`{"vertices":%d}`, vertices))
	_, err := t.cli.do(context.Background(), http.MethodPut, t.url("/streams/%s", id), body)
	return err
}

func (t *httpTarget) update(id string, batch uint64, ops []stream.Op) (stream.ApplyResult, error) {
	body, err := json.Marshal(struct {
		Batch uint64      `json:"batch"`
		Ops   []stream.Op `json:"ops"`
	}{batch, ops})
	if err != nil {
		return stream.ApplyResult{}, err
	}
	var res stream.ApplyResult
	data, err := t.cli.do(context.Background(), http.MethodPost, t.url("/streams/%s/update", id), body)
	if err == nil {
		err = json.Unmarshal(data, &res)
	}
	return res, err
}

func (t *httpTarget) forest(id string) (forestAnswer, error) {
	data, err := t.cli.do(context.Background(), http.MethodGet, t.url("/streams/%s/forest", id), nil)
	if err != nil {
		return forestAnswer{}, err
	}
	var reply struct {
		Trees  int               `json:"trees"`
		Weight float64           `json:"weight"`
		Forest []json.RawMessage `json:"forest"`
	}
	if err := json.Unmarshal(data, &reply); err != nil {
		return forestAnswer{}, err
	}
	return forestAnswer{Weight: reply.Weight, Edges: len(reply.Forest), Trees: reply.Trees}, nil
}

func (t *httpTarget) beginOp() func() { return func() {} }

// session is one booted, prepared and warmed-up server.
type session struct {
	target *httpTarget
	run    run
	dir    string
}

func (s *session) close() {
	s.target.cli.close()
	s.target.srv.stop()
	os.RemoveAll(s.dir)
}

// startSession boots a server and runs w's setup and warm-up on it. Only
// -addr and -stream-dir differ from mstserve's defaults.
func startSession(o options, w workload, bin string, newRun func() run, rep int) (*session, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d", w.name, rep))
	r := newRun()
	srv, err := startServer(bin, dir, "-stream-dir", filepath.Join(dir, "streams"))
	if err != nil {
		return nil, err
	}
	s := &session{target: &httpTarget{srv: srv, cli: newClient()}, run: r, dir: dir}
	if err := r.setup(s.target); err != nil {
		s.close()
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	return s, nil
}

// window is what a timed window of the closed-loop client measured.
type window struct {
	lat      []float64 // op latencies, ms
	at       []float64 // op completion times since the window opened, s
	refs     []float64 // reference pass times, ms
	refAt    []float64 // when each reference pass ended, s since the window opened
	failed   int64
	firstErr error
}

func (w *window) ops() int { return len(w.lat) }

// runWindow runs the closed loop: the client sends its next op only after
// the reply to the previous one. With count 0 the loop runs until d has
// passed; otherwise it runs exactly count ops. With ref set, it makes a
// reference pass between two ops once every refEvery.
func runWindow(t target, r run, d time.Duration, count int, ref *refPass) *window {
	w := &window{}
	start := time.Now()
	deadline := start.Add(d)
	nextRef := start
	for i := 0; count == 0 && time.Now().Before(deadline) || count > 0 && i < count; i++ {
		if ref != nil && !time.Now().Before(nextRef) {
			w.refs = append(w.refs, ms(ref.run()))
			w.refAt = append(w.refAt, time.Since(start).Seconds())
			nextRef = nextRef.Add(refEvery)
		}
		end := t.beginOp()
		t0 := time.Now()
		err := r.op(t)
		w.lat = append(w.lat, ms(time.Since(t0)))
		w.at = append(w.at, time.Since(start).Seconds())
		end()
		if err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
		}
	}
	return w
}

// subWindows is how many equal slices the timed window is cut into. Each
// timing metric is computed per slice, adjusted by the slice's reference
// passes (hostref.go), and averaged over the slices.
const subWindows = 10

// runE2E measures w over HTTP: setupReps setups (the median is setup_s),
// then one timed window of o.window on the last, then the end-of-run answer
// check.
func runE2E(o options, w workload, bin string) (*report, error) {
	newRun, err := w.prepare(o)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var s *session
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		s, err = startSession(o, w, bin, newRun, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			s.close()
		}
	}
	defer s.close()
	if o.corrupt {
		s.run.corrupt()
	}
	pid := s.target.srv.cmd.Process.Pid
	ref := newRefPass()

	// Server CPU is sampled at every slice boundary.
	slice := o.window / subWindows
	cpu := make([]time.Duration, subWindows+1)
	cpuErrs := make([]error, subWindows+1)
	sampled := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(sampled)
		for k := range cpu {
			time.Sleep(time.Until(start.Add(time.Duration(k) * slice)))
			cpu[k], cpuErrs[k] = cpuTime(pid)
		}
	}()
	win := runWindow(s.target, s.run, o.window, 0, ref)
	<-sampled
	if err := errors.Join(cpuErrs...); err != nil {
		return nil, err
	}
	rss, err := peakRSS(pid)
	if err != nil {
		return nil, err
	}
	if err := s.run.finish(s.target); err != nil {
		win.failed++
		win.firstErr = errors.Join(win.firstErr, err)
	}
	if win.firstErr != nil {
		fmt.Fprintf(o.log, "%s: %d failed; first failure: %v\n", w.name, win.failed, win.firstErr)
	}

	sliceOf := func(at float64) int { return int(at / slice.Seconds()) }
	lats := make([][]float64, subWindows)
	ats := make([][]float64, subWindows)
	for i, at := range win.at {
		if k := sliceOf(at); k < subWindows {
			lats[k] = append(lats[k], win.lat[i])
			ats[k] = append(ats[k], at)
		}
	}
	refs := make([][]float64, subWindows)
	for i, at := range win.refAt {
		if k := sliceOf(at); k < subWindows {
			refs[k] = append(refs[k], win.refs[i])
		}
	}
	// slowdown is how much slower than refNominal the slice's reference
	// passes ran; a slice without one takes the window's median pass.
	runRef := median(slices.Clone(win.refs))
	slowdown := func(k int) float64 {
		if len(refs[k]) == 0 {
			return runRef / ms(refNominal)
		}
		return median(refs[k]) / ms(refNominal)
	}
	var thr, p50, tail, cpuPerOp, raw []float64
	for k, l := range lats {
		if len(l) < 2 {
			continue
		}
		f := slowdown(k)
		thr = append(thr, f*float64(len(l)-1)/(ats[k][len(l)-1]-ats[k][0]))
		cpuPerOp = append(cpuPerOp, ms(cpu[k+1]-cpu[k])/float64(len(l))/f)
		p50 = append(p50, median(slices.Clone(l))/f)
		tail = append(tail, quantile(l, w.tail)/f)
		raw = append(raw, l...)
	}
	if len(p50) == 0 {
		return nil, fmt.Errorf("%s: fewer than two ops completed in every slice of the window", w.name)
	}
	fmt.Fprintf(o.log, "%s: unadjusted p50 %.4g ms over %d ops; reference pass median %.4g ms (nominal %v)\n",
		w.name, median(raw), len(raw), runRef, refNominal)
	rep := newReport()
	rep.Attempted, rep.Failed, rep.Correct = int64(win.ops()), win.failed, win.failed == 0
	rep.set("setup_s", median(setups), "s")
	rep.set("throughput_per_s", mean(thr), "ops/s")
	rep.set("latency_p50_ms", mean(p50), "ms")
	rep.set("latency_tail_ms", mean(tail), "ms")
	rep.set("server_cpu_ms_per_op", mean(cpuPerOp), "ms")
	rep.set("server_rss_peak_mb", float64(rss)/(1<<20), "MB")
	return rep, nil
}
