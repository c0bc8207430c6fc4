// The evaluation harness: one latency recorder (Hist), one timed client
// loop (Drive), one artifact schema (Artifact/Row) with one WriteJSON and
// one Render, and one registry (Experiments) that cmd/kgbench and the
// root benchmarks iterate. Every experiment in this package is a workload
// function over these four; see DESIGN.md, "Evaluation harness".
package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"semkg/internal/datagen"
	"semkg/internal/embed"
	"semkg/internal/serve"
)

// Hist records durations and answers order statistics over them. It is
// not safe for concurrent use: Drive keeps one per client and merges.
type Hist struct {
	d      []time.Duration
	sorted bool
}

// Add records one duration.
func (h *Hist) Add(d time.Duration) {
	h.d = append(h.d, d)
	h.sorted = false
}

// Merge adds every duration recorded in o.
func (h *Hist) Merge(o *Hist) {
	h.d = append(h.d, o.d...)
	h.sorted = false
}

// N is the number of recorded durations.
func (h *Hist) N() int { return len(h.d) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by the nearest-rank-below
// rule, 0 on an empty histogram; Quantile(0) is the minimum.
func (h *Hist) Quantile(q float64) time.Duration {
	if len(h.d) == 0 {
		return 0
	}
	if !h.sorted {
		slices.Sort(h.d)
		h.sorted = true
	}
	return h.d[int(q*float64(len(h.d)-1))]
}

// Mean returns the arithmetic mean, 0 on an empty histogram.
func (h *Hist) Mean() time.Duration {
	if len(h.d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range h.d {
		sum += d
	}
	return sum / time.Duration(len(h.d))
}

// Time runs f once and records its wall time if it succeeds. Sequential
// loops that need untimed set-up between iterations call it directly
// instead of going through Drive.
func (h *Hist) Time(f func() error) error {
	start := time.Now()
	if err := f(); err != nil {
		return err
	}
	h.Add(time.Since(start))
	return nil
}

// best returns the fastest of reps timed runs of f — the estimator for
// floor-bound timings such as a cold start, which systematic work bounds
// from below. prepare, when set, runs untimed before each rep.
func best(reps int, prepare func(), f func() error) (time.Duration, error) {
	var h Hist
	for i := 0; i < reps; i++ {
		if prepare != nil {
			prepare()
		}
		if err := h.Time(f); err != nil {
			return 0, err
		}
	}
	return h.Quantile(0), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Load shapes one Drive run: Clients closed-loop callers run op back to
// back, unrecorded for Warmup, then recorded for Measure. With Measure
// zero each client instead records Requests operations; with both zero
// the run is recorded until ctx is cancelled.
type Load struct {
	Clients  int
	Warmup   time.Duration
	Measure  time.Duration
	Requests int
}

// Sample is what one Drive run measured. Ops counts every recorded
// operation; Errors and Shed (admission-control refusals, HTTP 429 at
// the edge) are the ones that did not succeed, and only successes have a
// latency. QPS is successes per second of the recorded window.
type Sample struct {
	Clients int     `json:"clients,omitempty"`
	Ops     int     `json:"ops,omitempty"`
	Errors  int     `json:"errors,omitempty"`
	Shed    int     `json:"shed,omitempty"`
	WallMs  float64 `json:"wall_ms,omitempty"`
	QPS     float64 `json:"qps,omitempty"`
	MeanUs  float64 `json:"mean_us,omitempty"`
	P50Us   float64 `json:"p50_us,omitempty"`
	P95Us   float64 `json:"p95_us,omitempty"`
	P99Us   float64 `json:"p99_us,omitempty"`

	// Hist holds the success latencies behind the summary fields.
	Hist Hist `json:"-"`
	// Err is the first error that was not a shed, from any phase.
	Err error `json:"-"`
}

// Merge folds o into s as if both had been one run: counts and recorded
// wall time add, latencies pool. Paired measurements that interleave two
// configurations build each side's Sample this way.
func (s *Sample) Merge(o Sample) {
	s.Clients = max(s.Clients, o.Clients)
	s.Ops += o.Ops
	s.Errors += o.Errors
	s.Shed += o.Shed
	s.WallMs += o.WallMs
	s.Hist.Merge(&o.Hist)
	if s.Err == nil {
		s.Err = o.Err
	}
	s.summarize()
}

func (s *Sample) summarize() {
	s.QPS = 0
	if s.WallMs > 0 {
		s.QPS = float64(s.Hist.N()) / (s.WallMs / 1000)
	}
	s.MeanUs = us(s.Hist.Mean())
	s.P50Us = us(s.Hist.Quantile(0.50))
	s.P95Us = us(s.Hist.Quantile(0.95))
	s.P99Us = us(s.Hist.Quantile(0.99))
}

// maxShedPause caps how long a shed client honors Retry-After: a closed
// loop should stay closed, not idle.
const maxShedPause = 5 * time.Millisecond

// Drive is the harness's only timed client loop. op receives its
// client's index and that client's own operation counter (warm-up
// included), so per-client state — an RNG, a cursor — needs no sharing.
// An operation counts toward the Sample when it completes inside the
// recorded window. A *serve.OverloadedError is a shed: counted apart from
// errors and followed by a capped Retry-After pause. Cancelling ctx ends
// the run promptly; operations it interrupts are not counted.
func Drive(ctx context.Context, l Load, op func(ctx context.Context, client, i int) error) Sample {
	const (
		warmup int32 = iota
		measure
		done
	)
	var phase atomic.Int32
	if l.Warmup <= 0 {
		phase.Store(measure)
	}
	clients := max(l.Clients, 1)
	type tally struct {
		hist      Hist
		ops       int
		errs, shd int
		err       error
	}
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			for i := 0; ctx.Err() == nil && phase.Load() != done; i++ {
				if l.Measure <= 0 && l.Requests > 0 && t.ops == l.Requests {
					return
				}
				start := time.Now()
				err := op(ctx, c, i)
				d := time.Since(start)
				if err != nil && ctx.Err() != nil {
					return
				}
				measuring := phase.Load() == measure
				if measuring {
					t.ops++
				}
				var over *serve.OverloadedError
				switch {
				case err == nil:
					if measuring {
						t.hist.Add(d)
					}
				case errors.As(err, &over):
					if measuring {
						t.shd++
					}
					sleep(ctx, min(over.RetryAfter, maxShedPause))
				default:
					if measuring {
						t.errs++
					}
					if t.err == nil {
						t.err = err
					}
				}
			}
		}(c)
	}

	if l.Warmup > 0 {
		sleep(ctx, l.Warmup)
		phase.Store(measure)
	}
	start := time.Now()
	if l.Measure > 0 {
		sleep(ctx, l.Measure)
		phase.Store(done)
	}
	wall := time.Since(start)
	wg.Wait()
	if l.Measure <= 0 {
		wall = time.Since(start)
	}

	s := Sample{Clients: clients, WallMs: ms(wall)}
	for i := range tallies {
		t := &tallies[i]
		s.Ops += t.ops
		s.Errors += t.errs
		s.Shed += t.shd
		s.Hist.Merge(&t.hist)
		if s.Err == nil {
			s.Err = t.err
		}
	}
	s.summarize()
	return s
}

func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Row is one measured line of an artifact. Sample is set on rows a Drive
// run produced; Values holds every other number under a unit-suffixed
// key. A Frozen row was measured by a code path that has since been
// deleted: it is a committed number kept for comparison, and no run of
// the harness produces it again.
type Row struct {
	Section string             `json:"section"`
	Name    string             `json:"name"`
	Sample  *Sample            `json:"sample,omitempty"`
	Values  map[string]float64 `json:"values,omitempty"`
	Frozen  bool               `json:"frozen,omitempty"`
}

// Artifact is the one result schema: every experiment returns it, every
// BENCH_*.json file holds exactly one. Config is the experiment's own
// configuration struct, marshaled beside the rows it produced.
type Artifact struct {
	Experiment string  `json:"experiment"`
	Dataset    string  `json:"dataset"`
	Scale      string  `json:"scale"`
	Env        EnvInfo `json:"env"`
	Config     any     `json:"config,omitempty"`
	Rows       []Row   `json:"rows"`
}

// add appends a row and returns it so the caller can attach a Sample.
func (a *Artifact) add(section, name string, values map[string]float64) *Row {
	a.Rows = append(a.Rows, Row{Section: section, Name: name, Values: values})
	return &a.Rows[len(a.Rows)-1]
}

// WriteJSON stores the artifact.
func (a *Artifact) WriteJSON(path string) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sampleHeader names the columns Sample.cells fills.
var sampleHeader = []string{"ops", "err", "shed", "qps", "mean µs", "p50 µs", "p95 µs", "p99 µs"}

func (s *Sample) cells() []string {
	if s == nil {
		return slices.Repeat([]string{"-"}, len(sampleHeader))
	}
	return []string{num(float64(s.Ops)), num(float64(s.Errors)), num(float64(s.Shed)),
		num(s.QPS), num(s.MeanUs), num(s.P50Us), num(s.P95Us), num(s.P99Us)}
}

// Render formats the artifact as one text table per section, in row
// order: the row name, the Sample summary when any row of the section
// has one, then the union of the section's value keys, sorted.
func (a *Artifact) Render() []*Table {
	var sections []string
	grouped := map[string][]Row{}
	for _, r := range a.Rows {
		if _, seen := grouped[r.Section]; !seen {
			sections = append(sections, r.Section)
		}
		grouped[r.Section] = append(grouped[r.Section], r)
	}
	tables := make([]*Table, len(sections))
	for i, section := range sections {
		sampled := false
		keySet := map[string]bool{}
		for _, r := range grouped[section] {
			sampled = sampled || r.Sample != nil
			for k := range r.Values {
				keySet[k] = true
			}
		}
		keys := make([]string, 0, len(keySet))
		for k := range keySet {
			keys = append(keys, k)
		}
		slices.Sort(keys)

		t := &Table{
			Title: fmt.Sprintf("%s (%s: %s, %s, %s/%s, GOMAXPROCS=%d)", section,
				a.Experiment, a.Dataset, a.Scale, a.Env.GOOS, a.Env.GOARCH, a.Env.GOMAXPROCS),
			Header: []string{"row"},
		}
		if sampled {
			t.Header = append(t.Header, sampleHeader...)
		}
		t.Header = append(t.Header, keys...)
		for _, r := range grouped[section] {
			cells := []string{r.Name}
			if r.Frozen {
				cells[0] += " [frozen]"
			}
			if sampled {
				cells = append(cells, r.Sample.cells()...)
			}
			for _, k := range keys {
				if v, ok := r.Values[k]; ok {
					cells = append(cells, num(v))
				} else {
					cells = append(cells, "-")
				}
			}
			t.AddRow(cells...)
		}
		tables[i] = t
	}
	return tables
}

// Params is what the command line (or a benchmark) can say about a run;
// each experiment derives everything else.
type Params struct {
	// Scale, Embed and Tau configure the generated paper-scale datasets
	// (zero values take Config's defaults). The large-world experiments
	// ignore them.
	Scale float64
	Embed embed.Config
	Tau   float64
	// Short trims iteration counts and world sizes for CI smoke runs.
	Short bool
}

func (p Params) env(profile func(scale float64) datagen.Profile) (*Env, error) {
	return Cached(Config{Profile: profile(p.Scale), Embed: p.Embed, Tau: p.Tau})
}

// Experiment is one registry entry.
type Experiment struct {
	Name string
	// Paper marks the twelve Section VII reproductions `kgbench -exp all`
	// prints; the others are the system artifacts, each written to
	// BENCH_<name>.json.
	Paper bool
	Run   func(ctx context.Context, p Params) (*Artifact, error)
}

// Experiments is the registry, in `-exp all` order.
var Experiments = []Experiment{
	{"table1", true, runTable1},
	{"fig12", true, figure("fig12", datagen.DBpediaLike)},
	{"fig13", true, figure("fig13", datagen.FreebaseLike)},
	{"fig14", true, figure("fig14", datagen.YAGO2Like)},
	{"fig15", true, runFig15},
	{"table5", true, runTable5},
	{"table6", true, runTable6},
	{"table7", true, runTable7},
	{"noise", true, runNoise},
	{"table9", true, runTable9},
	{"table10", true, runTable10},
	{"ablation", true, runAblation},
	{"hotpath", false, runHotpath},
	{"serve", false, runServe},
	{"ingest", false, runIngest},
	{"replica", false, runReplica},
	{"keyword", false, runKeyword},
	{"batch", false, runBatch},
	{"load", false, runLoad},
}

// Lookup finds an experiment by its -exp name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
