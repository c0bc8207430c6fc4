package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildSemkgd compiles ./cmd/semkgd of the checkout into dir. benchDir is
// the benchmark's module directory: the build runs there, so the server
// is built from the checkout's sources through the module's replace
// directive, never from an installed copy.
func buildSemkgd(benchDir, dir string) (string, error) {
	bin := filepath.Join(dir, "semkgd")
	cmd := exec.Command("go", "build", "-o", bin, "semkg/cmd/semkgd")
	cmd.Dir = benchDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building semkgd: %v\n%s", err, out)
	}
	return bin, nil
}

// semkgd is one running server subprocess.
type semkgd struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	logs *syncBuffer
	hc   *http.Client
	// writer is the ingest writer's own connection: a commit must not
	// queue behind the readers' keep-alive connections.
	writer *http.Client
	done   chan struct{} // closed when the process has been reaped
	werr   error
}

// syncBuffer collects the server's log output; the process writes it
// while the harness may read it for a failure report.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startSemkgd boots the server on an ephemeral port, with default flags
// plus the workload's extra ones, and returns once /healthz answers. dir
// receives the address file.
func startSemkgd(bin, snap, model, dir string, extra []string) (*semkgd, error) {
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile)
	s := &semkgd{logs: &syncBuffer{}, done: make(chan struct{})}
	args := append([]string{"-snapshot", snap, "-model", model, "-addr", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout = s.logs
	s.cmd.Stderr = s.logs
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting semkgd: %w", err)
	}
	go func() {
		s.werr = s.cmd.Wait()
		close(s.done)
	}()
	// Keep-alive connections, never more than the client count: the
	// harness shares two cores with the server.
	s.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		IdleConnTimeout:     time.Minute,
	}}
	s.writer = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return nil, fmt.Errorf("semkgd exited during start-up: %v\n%s", s.werr, s.logs)
		default:
		}
		if s.base == "" {
			if data, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
				s.base = "http://" + strings.TrimSpace(string(data))
			}
		}
		if s.base != "" {
			resp, err := s.hc.Get(s.base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("semkgd did not become healthy in 90s\n%s", s.logs)
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited after 15 seconds. It returns once the process is reaped.
func (s *semkgd) stop() {
	s.hc.CloseIdleConnections()
	s.writer.CloseIdleConnections()
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// post sends one request body and returns the status and the raw
// response. The body is read to the end so the connection is reused.
func (s *semkgd) post(path string, body []byte) (int, []byte, error) {
	return s.postWith(s.hc, path, body)
}

func (s *semkgd) postIngest(body []byte) (int, []byte, error) {
	return s.postWith(s.writer, "/v1/ingest", body)
}

func (s *semkgd) postWith(hc *http.Client, path string, body []byte) (int, []byte, error) {
	resp, err := hc.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (s *semkgd) get(path string) ([]byte, error) {
	resp, err := s.hc.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// vars reads /debug/vars: the serving layer's counters and the Go
// runtime's memstats of the process under test.
type serverVars struct {
	Serve struct {
		ResultHits       uint64 `json:"result_hits"`
		ResultMisses     uint64 `json:"result_misses"`
		PlanHits         uint64 `json:"plan_hits"`
		PlanMisses       uint64 `json:"plan_misses"`
		SubHits          uint64 `json:"sub_hits"`
		SubMisses        uint64 `json:"sub_misses"`
		FlightShared     uint64 `json:"flight_shared"`
		PipelineRuns     uint64 `json:"pipeline_runs"`
		Queued           uint64 `json:"queued"`
		RejectedQueue    uint64 `json:"rejected_queue_full"`
		RejectedDeadline uint64 `json:"rejected_deadline"`
		EstimatedRun     int64  `json:"estimated_run_ns"`
	} `json:"semkgd_serve"`
	Mem struct {
		PauseTotalNs uint64 `json:"PauseTotalNs"`
		NumGC        uint32 `json:"NumGC"`
		HeapInuse    uint64 `json:"HeapInuse"`
		TotalAlloc   uint64 `json:"TotalAlloc"`
	} `json:"memstats"`
}

func (s *semkgd) vars() (serverVars, error) {
	var v serverVars
	data, err := s.get("/debug/vars")
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, fmt.Errorf("parsing /debug/vars: %w", err)
	}
	return v, nil
}

// rssPeakMB is the kernel's high-water mark of the process's resident
// set (the VmHWM line of /proc/<pid>/status, in kB), so no sampling loop
// competes with the system under test.
func rssPeakMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// procCPU returns the CPU time a process's threads have consumed, summed
// from /proc/<pid>/task/*/schedstat (first field, nanoseconds on CPU).
// /proc/<pid>/stat would do, but its 10 ms clock ticks are too coarse to
// divide by a few hundred requests.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("/proc/%d/task/%s/schedstat: unexpected format", pid, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/task/%s/schedstat: %w", pid, t.Name(), err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// cleanups runs registered teardown steps exactly once, on every exit
// path: normal return, error return, and SIGINT/SIGTERM to the harness.
type cleanups struct {
	mu    sync.Mutex
	steps []func()
}

func (c *cleanups) add(f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.steps = append(c.steps, f)
}

func (c *cleanups) run() {
	c.mu.Lock()
	steps := c.steps
	c.steps = nil
	c.mu.Unlock()
	for i := len(steps) - 1; i >= 0; i-- {
		steps[i]()
	}
}
