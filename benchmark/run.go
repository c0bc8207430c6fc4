package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"semkg/internal/api"
	"semkg/internal/core"
	"semkg/internal/kg"
	"semkg/internal/serve"
)

// runEnv is what every run of one harness process shares.
type runEnv struct {
	spec     *benchSpec
	benchDir string // the benchmark module's directory
	workDir  string // scratch space inside the checkout, removed on exit
	binDir   string // build outputs, kept between runs so an up-to-date semkgd is not relinked
	semkgd   string // built on first use
	cleanup  *cleanups
}

func (e *runEnv) semkgdBin() (string, error) {
	if e.semkgd == "" {
		bin, err := buildSemkgd(e.benchDir, e.binDir)
		if err != nil {
			return "", err
		}
		e.semkgd = bin
	}
	return e.semkgd, nil
}

// runResult is one run's record in a run-set file (-out).
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Trace     bool    `json:"trace"`
	Seconds   float64 `json:"seconds"`
	Short     bool    `json:"short,omitempty"`
	InputHash string  `json:"input_hash"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Valid is false when the load generator itself was the bottleneck
	// (scheduling lag or CPU share above the limits in the README): the
	// numbers are reported but should not be compared.
	Valid   bool                   `json:"valid"`
	Notes   []string               `json:"notes,omitempty"`
	Metrics map[string]metricValue `json:"metrics"`
	// Info holds numbers printed for the reader but not part of the
	// contract: p99 (too few tail samples to repeat), sample counts,
	// the generator's own lag and CPU.
	Info  map[string]float64 `json:"info,omitempty"`
	Spans []span             `json:"spans,omitempty"`
}

// system is the set-up system under test plus what the harness needs
// beside it.
type system struct {
	wd  *world
	eng *core.Engine // in-process engine: the target (schema) or the gate's reference (HTTP)
	srv *semkgd      // nil on in-process workloads
	dir string
	// startTime is how long semkgd took from exec to healthy.
	startTime time.Duration
	subCache  int // the workload's serving-layer setting
}

func (sys *system) target() target {
	if sys.srv != nil {
		return httpTarget{sys.srv}
	}
	return engineTarget{sys.eng}
}

// setUp builds the world and brings the system under test up, timing
// exactly what an operator would wait for: world generation, embedding
// training or snapshot+model write, and engine build or server healthy.
func (e *runEnv) setUp(w workload) (*system, time.Duration, error) {
	start := time.Now()
	wd, err := buildWorld(w)
	if err != nil {
		return nil, 0, err
	}
	sys := &system{wd: wd, subCache: w.subCache}
	if !w.http {
		if sys.eng, err = wd.engine(); err != nil {
			return nil, 0, err
		}
		return sys, time.Since(start), nil
	}
	bin, err := e.semkgdBin() // built before the first timed set-up, see run
	if err != nil {
		return nil, 0, err
	}
	sys.dir, err = os.MkdirTemp(e.workDir, "sys-")
	if err != nil {
		return nil, 0, err
	}
	snap, model, err := wd.writeFiles(sys.dir)
	if err != nil {
		return nil, 0, err
	}
	boot := time.Now()
	var flags []string
	if w.subCache != 0 {
		flags = []string{"-sub-cache", strconv.Itoa(w.subCache)}
	}
	srv, err := startSemkgd(bin, snap, model, sys.dir, flags)
	if err != nil {
		return nil, 0, err
	}
	sys.srv = srv
	sys.startTime = time.Since(boot)
	e.cleanup.add(srv.stop)
	return sys, time.Since(start), nil
}

// serveLayer puts an in-process serving layer over the system's engine,
// configured as the workload's semkgd is and with the engine builder live
// ingestion needs — semkgd's wiring.
func (sys *system) serveLayer() *serve.Engine {
	return serve.New(sys.eng, serve.Config{SubCache: sys.subCache, Build: func(g *kg.Graph) (core.Queryer, error) {
		return core.BuildEngine(g, sys.wd.model, sys.wd.lib)
	}})
}

func (sys *system) tearDown() {
	if sys.srv != nil {
		sys.srv.stop()
		os.RemoveAll(sys.dir)
	}
}

// ingestLog records the write side of a run in absolute time, so the
// gate can tell which generations were live while a read was in flight.
type ingestLog struct {
	mu     sync.Mutex
	starts []time.Time
	ends   []time.Time
	lat    []float64 // client-observed commit latency, ms
	failed []string
}

// gens returns the lowest and highest generation that may have answered a
// request in flight over [start, end]: commits acknowledged before it
// started are certainly visible, commits posted before it ended may be.
func (l *ingestLog) gens(start, end time.Time) [2]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	lo, hi := 0, 0
	for i := range l.starts {
		if !l.ends[i].After(start) {
			lo++
		}
		if !l.starts[i].After(end) {
			hi++
		}
	}
	return [2]int{lo, hi}
}

// commit posts (or applies in process) one batch and logs it.
func (l *ingestLog) commit(srv *semkgd, inproc *serve.Engine, batch []api.IngestTriple) {
	start := time.Now()
	var failure string
	if srv != nil {
		status, raw, err := srv.postIngest(encodeBatch(batch))
		switch {
		case err != nil:
			failure = err.Error()
		case status != http.StatusOK:
			failure = fmt.Sprintf("ingest status %d: %s", status, raw)
		}
	} else {
		d := inproc.NewDelta()
		for _, t := range batch {
			if err := d.ApplyTriple(t.S, t.P, t.O); err != nil {
				failure = err.Error()
			}
		}
		if failure == "" {
			if _, err := inproc.Apply(d); err != nil {
				failure = err.Error()
			}
		}
	}
	end := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.starts = append(l.starts, start)
	l.ends = append(l.ends, end)
	l.lat = append(l.lat, msOf(end.Sub(start)))
	if failure != "" {
		l.failed = append(l.failed, failure)
	}
}

// phase is one measured phase's samples with its absolute start, so
// sample offsets convert to the wall-clock times the ingest log uses.
type phase struct {
	t0      time.Time
	wall    time.Duration
	samples []sample
}

// setUpMedian sets the system up w.setups times. setup_s is the median;
// the last system is the one measured.
func (e *runEnv) setUpMedian(w workload) (*system, []float64, error) {
	if w.http {
		// Built before the first timed set-up: the build is the
		// benchmark's cost, not the system's.
		if _, err := e.semkgdBin(); err != nil {
			return nil, nil, err
		}
	}
	var sys *system
	var setups []float64
	for i := 0; i < w.setups; i++ {
		if sys != nil {
			sys.tearDown()
			runtime.GC()
		}
		s, d, err := e.setUp(w)
		if err != nil {
			return nil, nil, err
		}
		sys = s
		setups = append(setups, d.Seconds())
	}
	return sys, setups, nil
}

// prepare does the harness-side work that is outside every timed region:
// the inputs, and the gate with its reference engine.
func (sys *system) prepare(w workload, seed int64, seconds float64) (*inputs, *gate, error) {
	in := sys.wd.generate(w, seed, seconds)
	if sys.eng == nil {
		eng, err := sys.wd.engine()
		if err != nil {
			return nil, nil, err
		}
		sys.eng = eng
	}
	return in, newGate(sys.wd, sys.eng), nil
}

// warmUp lets caches fill and lazy set-up (weight rows, the matcher's
// memo, the TBQ calibration) finish before timing. Over HTTP: w.warmup of
// closed-loop traffic. In process: the gate's exact reference of every
// request kind, which is one exact pass over the engine under test, and on
// a time-bounded workload one pass of the bounded requests after it.
func (sys *system) warmUp(w workload, in *inputs, g *gate) {
	if w.http {
		runClosed(sys.target(), in.warm, 1, w.warmup)
		return
	}
	g.prefetch(in.warm)
	if w.bound > 0 {
		runClosed(sys.target(), in.warm, 1, time.Hour)
	}
}

// tally is the gate's count over the measured requests, and what the
// metrics need of each correct response.
type tally struct {
	attempted, failed int
	f1s               []float64
	ontime            int
	why               map[string]int
}

// add gates one sample against the generations that may have answered it
// and reports whether it passed. A rejected sample is marked failed in
// place, so the throughput counts skip it.
func (tl *tally) add(g *gate, w workload, s *sample, gens [2]int) bool {
	c := g.check(s, gens)
	tl.attempted++
	if !c.ok {
		tl.failed++
		tl.why[c.why]++
		s.out = outcome{err: fmt.Errorf("%s", c.why)}
		return false
	}
	tl.f1s = append(tl.f1s, c.f1)
	if s.latency() <= w.limit {
		tl.ontime++
	}
	return true
}

// measured is what a window yields: the values of the end-to-end metrics
// (all but setup_s) and the numbers printed beside them.
type measured struct {
	tally
	vals map[string]metricValue
	info map[string]float64
	// lag and selfCPU are the open loop's timer lateness and the
	// harness's own CPU time over the window (HTTP workloads).
	lag     []time.Duration
	selfCPU time.Duration
	wall    time.Duration
}

// measurePasses is the measured window of an in-process workload: one
// closed-loop client runs whole shuffled passes of every request kind
// until about `seconds` of pass time have gone by (the stop is at the pass
// boundary nearest to it). Each pass is timed, gated and then dropped, so
// the heap the engine's garbage collector sees does not grow with the
// window. Throughput and CPU are medians over passes: a neighbour's burst
// on the shared host lands in a pass or two and leaves the median alone.
func (sys *system) measurePasses(w workload, in *inputs, g *gate, seconds float64) (*measured, error) {
	m := &measured{tally: tally{why: map[string]int{}}, info: map[string]float64{}}
	t := sys.target()
	total := time.Duration(seconds * float64(time.Second))
	byKind := make(map[int][]float64)
	var qps, cpuMs []float64
	start := time.Now()
	var timed time.Duration
	passes := 0
	for ; (passes+1)*in.passLen <= len(in.closed); passes++ {
		if passes > 0 && timed+timed/time.Duration(2*passes) > total {
			break // another pass would end further from `seconds` than this boundary is
		}
		cpu0, err := procCPU(os.Getpid())
		if err != nil {
			return nil, err
		}
		samples, wall := runClosed(t, in.closed[passes*in.passLen:(passes+1)*in.passLen], 1, time.Hour)
		cpu1, err := procCPU(os.Getpid())
		if err != nil {
			return nil, err
		}
		timed += wall
		ok := 0
		for i := range samples {
			s := &samples[i]
			if m.add(g, w, s, [2]int{}) {
				ok++
				byKind[s.req.key] = append(byKind[s.req.key], msOf(s.latency()))
			}
		}
		qps = append(qps, float64(ok)/wall.Seconds())
		cpuMs = append(cpuMs, msOf(cpu1-cpu0)/float64(max(ok, 1)))
	}
	m.wall = time.Since(start)
	rss, err := rssPeakMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	// The mix is bimodal (a Simple query answers in a millisecond, a
	// Medium one at K = 100 in a quarter of a second), so a quantile of
	// the pooled samples sits in the gap between two kinds and jumps from
	// one to the other. Each kind's latency is its median over the
	// passes; the quantiles are taken over the kinds.
	var kinds []float64
	n := 0
	for _, lats := range byKind {
		kinds = append(kinds, median(lats))
		n += len(lats)
	}
	m.vals = map[string]metricValue{
		"latency_p50_ms":   {Value: quantile(kinds, 0.50), Samples: n},
		"latency_p95_ms":   {Value: quantile(kinds, 0.95), Samples: n},
		"throughput_qps":   {Value: median(qps), Samples: passes},
		"cpu_ms_per_query": {Value: median(cpuMs), Samples: passes},
		"ontime_share":     {Value: float64(m.ontime) / float64(max(m.attempted, 1)), Samples: m.attempted},
		"rss_peak_mb":      {Value: rss},
	}
	m.info["passes"] = float64(passes)
	m.info["requests"] = float64(m.attempted)
	m.info["timed_s"] = timed.Seconds()
	return m, nil
}

// measureHTTP is the measured window of an HTTP workload: an open loop at
// the workload's rate where it has one, else one closed-loop client;
// beside it, the workload's ingest writer. Raw responses are kept and
// gated after the window.
func (sys *system) measureHTTP(w workload, in *inputs, g *gate, seconds float64) (*measured, error) {
	m := &measured{tally: tally{why: map[string]int{}}, info: map[string]float64{}}
	t := sys.target()
	log := &ingestLog{}
	pid := sys.srv.cmd.Process.Pid
	self0, _ := procCPU(os.Getpid())
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	// The load generator runs on one thread for the window: with the
	// default two, a response wakes a second thread of the harness as
	// often as not, and a closed loop's median round trip spread by 14%
	// over six seeds where it spreads by 3% on one (interleaved runs).
	// The server's GOMAXPROCS is left alone.
	procs := runtime.GOMAXPROCS(1)
	stopWriter := func() {}
	if w.ingestEvery > 0 {
		stopWriter = startWriter(sys.srv, log, in.batches, w.ingestEvery)
	}
	p := phase{t0: time.Now()}
	if w.rate > 0 {
		p.samples, m.lag = runOpen(t, in.open, in.due, clients)
		p.wall = time.Since(p.t0)
	} else {
		p.samples, p.wall = runClosed(t, in.closed, 1, time.Duration(seconds*float64(time.Second)))
	}
	stopWriter()
	runtime.GOMAXPROCS(procs)
	m.wall = time.Since(p.t0)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	self1, _ := procCPU(os.Getpid())
	m.selfCPU = self1 - self0
	rss, err := rssPeakMB(pid)
	if err != nil {
		return nil, err
	}

	// The gate: mirror the commits, then check every response against the
	// generations that were live while it was in flight.
	for i := range log.lat {
		if err := g.apply(in.batches[i]); err != nil {
			return nil, err
		}
	}
	gens := func(s *sample) [2]int { return log.gens(p.t0.Add(s.start), p.t0.Add(s.end)) }
	g.prefetchAt(p.samples, gens)
	for i := range p.samples {
		m.add(g, w, &p.samples[i], gens(&p.samples[i]))
	}
	requests := m.attempted
	m.attempted += len(log.lat)
	m.failed += len(log.failed)
	for _, f := range log.failed {
		m.why[f]++
	}

	ok := countOK(p.samples)
	groups := chunks(len(p.samples), latencyChunk)
	m.vals = map[string]metricValue{
		"latency_p50_ms": {Value: groupedQuantile(p.samples, groups, 0.50), Samples: len(p.samples)},
		"latency_p95_ms": {Value: groupedQuantile(p.samples, groups, 0.95), Samples: len(p.samples)},
		// In the open loop this is the rate at which the arrivals were
		// answered: the offered rate, unless the server falls behind.
		"throughput_qps":   {Value: float64(ok) / p.wall.Seconds(), Samples: len(p.samples)},
		"cpu_ms_per_query": {Value: msOf(cpu1-cpu0) / float64(max(ok, 1)), Samples: ok},
		"ontime_share":     {Value: float64(m.ontime) / float64(max(requests, 1)), Samples: requests},
		"rss_peak_mb":      {Value: rss},
	}
	pooled := make([]float64, 0, len(p.samples))
	for i := range p.samples {
		if p.samples[i].out.err == nil {
			pooled = append(pooled, msOf(p.samples[i].latency()))
		}
	}
	m.info["latency_pooled_p95_ms"] = quantile(pooled, 0.95)
	m.info["latency_p99_ms"] = quantile(pooled, 0.99)
	m.info["latency_max_ms"] = quantile(pooled, 1)
	m.info["requests"] = float64(requests)
	m.info["generations_checked"] = float64(len(g.engines))
	if len(log.lat) > 0 {
		m.info["ingest_commits"] = float64(len(log.lat))
		m.info["ingest_commit_p50_ms"] = median(log.lat)
	}
	return m, nil
}

// run executes one workload once and returns its record.
func (e *runEnv) run(w workload, seed int64, seconds float64, trace bool) (*runResult, error) {
	if trace {
		return e.runTraced(w, seed, seconds)
	}
	res := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Short: w.short, Valid: true}
	began := time.Now()
	sys, setups, err := e.setUpMedian(w)
	if err != nil {
		return nil, err
	}
	defer sys.tearDown()
	setUpDone := time.Now()
	in, g, err := sys.prepare(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	res.InputHash = in.hash
	sys.warmUp(w, in, g)
	warm := time.Now()
	var m *measured
	if w.http {
		m, err = sys.measureHTTP(w, in, g, seconds)
	} else {
		m, err = sys.measurePasses(w, in, g, seconds)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Correct = m.attempted, m.failed, m.failed == 0
	res.Notes = notesOf(m.why)
	res.Info = m.info
	m.vals["setup_s"] = metricValue{Value: median(setups), Samples: len(setups)}
	m.vals["f1_at_k"] = metricValue{Value: mean(m.f1s), Samples: len(m.f1s)}
	// Where the run's wall time went, so the driver's time limit for all
	// runs stays in view.
	res.Info["window_s"] = m.wall.Seconds()
	res.Info["harness.setups_s"] = setUpDone.Sub(began).Seconds()
	res.Info["harness.prepare_warm_s"] = warm.Sub(setUpDone).Seconds()
	res.Info["harness.gate_s"] = time.Since(warm).Seconds() - m.wall.Seconds()
	if w.http {
		lagP95, share := lagP95Ms(m.lag), cpuShare(m.selfCPU, m.wall)
		res.Info["loadgen.sched_lag_p95_ms"] = lagP95
		res.Info["loadgen.cpu_share"] = share
		if lagP95 > maxSchedLagMs || share > maxLoadgenCPU {
			res.Valid = false
			res.Notes = append(res.Notes, "invalid: the load generator was the bottleneck")
		}
	}
	res.Metrics, err = selectMetrics(e.spec.EndToEnd, m.vals)
	return res, err
}

// Limits above which a run is marked invalid: the generator, not the
// system, shaped the numbers.
const (
	maxSchedLagMs = 5.0
	maxLoadgenCPU = 0.4
)

// lagP95Ms is the 95th percentile of the open loop's timer lateness.
func lagP95Ms(lag []time.Duration) float64 {
	ms := make([]float64, len(lag))
	for i, l := range lag {
		ms[i] = msOf(l)
	}
	return quantile(ms, 0.95)
}

// cpuShare is the harness's CPU time over wall time × cores.
func cpuShare(cpu, wall time.Duration) float64 {
	return cpu.Seconds() / wall.Seconds() / float64(runtime.NumCPU())
}

// notesOf renders failure reasons with their counts, sorted.
func notesOf(why map[string]int) []string {
	var notes []string
	for reason, n := range why {
		notes = append(notes, fmt.Sprintf("%d× %s", n, reason))
	}
	sort.Strings(notes)
	return notes
}

func countOK(samples []sample) int {
	n := 0
	for i := range samples {
		if samples[i].out.err == nil {
			n++
		}
	}
	return n
}

// startWriter runs the single ingest writer: batch i is due at
// (i + ½) × period after the start, whatever the earlier commits took.
// The returned stop function waits for an in-flight commit to finish.
func startWriter(srv *semkgd, log *ingestLog, batches [][]api.IngestTriple, period time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		for i, batch := range batches {
			due := start.Add(period/2 + time.Duration(i)*period)
			select {
			case <-done:
				return
			case <-time.After(time.Until(due)):
			}
			log.commit(srv, nil, batch)
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// appendRun adds a run to a run-set file, creating it with the env block
// on first use. Runs come from separate processes (peak RSS is a
// per-process high-water mark), so the file is the unit that accumulates.
func appendRun(path string, r *runResult) error {
	set := runSet{Env: captureEnv()}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &set); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	set.Runs = append(set.Runs, r)
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
