package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles ./cmd/mstserve of the repository at root into dir.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "mstserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mstserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building mstserve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running mstserve process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
}

// startServer runs bin with -addr 127.0.0.1:0 plus args, with its output in
// files under dir, and waits until /healthz answers 200. Stdout and stderr
// go to files, so the request log costs the server what it costs in
// production but a full pipe can never block it.
func startServer(bin, dir string, args ...string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	outPath := filepath.Join(dir, "stdout.log")
	stdout, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr.log"))
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	// Should the benchmark die without stopping its servers, the kernel
	// kills them.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(s.done)
	}()
	if err := s.awaitReady(outPath); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) awaitReady(outPath string) error {
	const marker = "mstserve listening on "
	deadline := time.Now().Add(20 * time.Second)
	for ; time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		select {
		case <-s.done:
			return fmt.Errorf("mstserve exited during start-up (see %s)", outPath)
		default:
		}
		if s.base == "" {
			data, _ := os.ReadFile(outPath)
			i := bytes.Index(data, []byte(marker))
			if i < 0 {
				continue
			}
			rest := data[i+len(marker):]
			nl := bytes.IndexByte(rest, '\n')
			if nl < 0 {
				continue
			}
			s.base = "http://" + string(rest[:nl])
		}
		resp, err := http.Get(s.base + "/healthz")
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
	}
	return fmt.Errorf("mstserve not healthy after 20s (see %s)", outPath)
}

// stop sends SIGTERM (a graceful drain) and waits for the process to exit,
// killing it after 15 s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime returns the user plus system CPU time the process has used, from
// /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis, starting at field 3.
	fields := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS returns the process's VmHWM in bytes.
func peakRSS(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// client is the closed-loop load generator's HTTP connection. It counts
// request and response body bytes.
type client struct {
	hc                  *http.Client
	reqBytes, respBytes int64
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// errStatus is a non-2xx answer.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.code, strings.TrimSpace(e.body))
}

// do sends one request and returns the response body; a non-2xx status is
// an *errStatus.
func (c *client) do(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	c.reqBytes += int64(len(body))
	c.respBytes += int64(len(data))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &errStatus{code: resp.StatusCode, body: string(data)}
	}
	return data, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }
