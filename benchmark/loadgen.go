package main

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"semkg/internal/core"
)

// target is the system under test as the load generator sees it: one
// blocking call per request.
type target interface {
	do(r *request) outcome
}

// outcome is one raw response. The load generator only stores it; parsing
// and checking happen after the measured window, so the generator's CPU
// cost inside the window is the send, the receive and two clock reads.
type outcome struct {
	status int          // HTTP status; 200 for an in-process success
	raw    []byte       // HTTP response body
	res    *core.Result // in-process result
	err    error
}

// engineTarget calls core.Engine.Search in process.
type engineTarget struct{ eng *core.Engine }

func (t engineTarget) do(r *request) outcome {
	return engineOutcome(t.eng.Search(context.Background(), r.q, r.opts))
}

func engineOutcome(res *core.Result, err error) outcome {
	if err != nil {
		return outcome{err: err}
	}
	return outcome{status: http.StatusOK, res: res}
}

// httpTarget posts to a semkgd subprocess.
type httpTarget struct{ srv *semkgd }

func (t httpTarget) do(r *request) outcome {
	status, raw, err := t.srv.post("/v1/search", r.body)
	return outcome{status: status, raw: raw, err: err}
}

// sample is one measured request. Times are offsets from the phase start.
// latency runs from due: in the open loop that is the scheduled arrival,
// so a stall is charged to every request it delays; in the closed loop
// due equals start.
type sample struct {
	req        *request
	due, start time.Duration
	end        time.Duration
	out        outcome
}

func (s *sample) latency() time.Duration { return s.end - s.due }

// runClosed drives n back-to-back clients over reqs until d has elapsed or
// the pool is exhausted (a pool never wraps around). It returns the
// samples, per client in completion order, and the phase's wall time.
func runClosed(t target, reqs []*request, n int, d time.Duration) ([]sample, time.Duration) {
	var next atomic.Int64
	per := make([][]sample, n)
	phase := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				start := time.Since(phase)
				if i >= len(reqs) || start >= d {
					return
				}
				out := t.do(reqs[i])
				per[c] = append(per[c], sample{req: reqs[i], due: start, start: start, end: time.Since(phase), out: out})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(phase)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, wall
}

// runOpen sends reqs[i] at due[i] regardless of how the system keeps up,
// over n keep-alive connections. A worker that finds its request already
// due sends at once (the request queued behind a busy connection and its
// latency says so); a worker that had to sleep records how late the timer
// woke it — the generator's own scheduling lag. Samples come back in
// arrival order.
func runOpen(t target, reqs []*request, due []time.Duration, n int) (samples []sample, lag []time.Duration) {
	var next atomic.Int64
	per := make([][]sample, n)
	lags := make([][]time.Duration, n)
	phase := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				if wait := due[i] - time.Since(phase); wait > 0 {
					time.Sleep(wait)
					lags[c] = append(lags[c], time.Since(phase)-due[i])
				}
				start := time.Since(phase)
				out := t.do(reqs[i])
				per[c] = append(per[c], sample{req: reqs[i], due: due[i], start: start, end: time.Since(phase), out: out})
			}
		}(c)
	}
	wg.Wait()
	for c := range per {
		samples = append(samples, per[c]...)
		lag = append(lag, lags[c]...)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].due < samples[j].due })
	return samples, lag
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencyChunk is how many consecutive requests form one group of the HTTP
// workloads' latency quantiles.
const latencyChunk = 100

// groupedQuantile takes the quantile of each group's latencies and
// returns the median of those. On the HTTP workloads the groups are
// chunks of latencyChunk consecutive requests, so the number reported is
// the quantile of a typical stretch of traffic: a garbage-collection
// cycle of the server or a burst from a neighbour on the shared host
// lands in a few chunks and moves the median of chunks hardly at all,
// where it moves a quantile of the pooled window by a third from run to
// run (measured; see the README). The bad stretches are not hidden: the
// pooled p99 and maximum are printed beside it.
func groupedQuantile(samples []sample, groups [][]int, q float64) float64 {
	var per []float64
	for _, g := range groups {
		lats := make([]float64, len(g))
		for i, idx := range g {
			lats[i] = msOf(samples[idx].latency())
		}
		per = append(per, quantile(lats, q))
	}
	return median(per)
}

// chunks splits the indexes 0..n-1 into consecutive groups of size each,
// dropping a shorter remainder (n < size gives one short group).
func chunks(n, size int) [][]int {
	size = min(size, n)
	var groups [][]int
	for start := 0; size > 0 && start+size <= n; start += size {
		g := make([]int, size)
		for i := range g {
			g[i] = start + i
		}
		groups = append(groups, g)
	}
	return groups
}
