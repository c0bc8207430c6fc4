// Load experiment: the million-node scale-up harness (BENCH_load.json).
// Three sections over one generated large world (datagen.LargeWorld):
//
//   - cold-start: before/after rows for the two cold-start optimizations —
//     the parallel snapshot decode (kg.ReadSnapshotWorkers at 1 worker vs
//     GOMAXPROCS), the parallel index build (kg.Builder.BuildWorkers,
//     same comparison), and the operator-facing total: the seed cold-start
//     path (TSV parse + index build) against the shipped path (parallel
//     snapshot load);
//   - steady-state: the per-sub-search cost of the A* arena and adaptive
//     end sets (the weighter computes m(u) and keeps no per-node state).
//     The seed arena they replaced (dense suffix slab plus full-graph
//     bitsets) no longer exists in the engine; its number is the frozen
//     row of the committed artifact;
//   - load: closed-loop clients against the serving layer (internal/serve)
//     with warmup and measure phases, reporting p50/p95/p99 latency, QPS,
//     error/shed accounting and heap stats.
//
// The full run is 1M nodes; -short trims to a CI-sized world. The
// artifact embeds its configuration, so rows from different machines or
// GOMAXPROCS settings are comparable.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"semkg/internal/core"
	"semkg/internal/datagen"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/serve"
)

// LoadConfig is the harness configuration embedded in the artifact.
type LoadConfig struct {
	Nodes           int     `json:"nodes"`
	AvgDegree       float64 `json:"avg_degree"`
	Seed            int64   `json:"seed"`
	Dim             int     `json:"dim"`
	K               int     `json:"k"`
	Tau             float64 `json:"tau"`
	MaxHops         int     `json:"max_hops"`
	TimeBoundMs     int64   `json:"time_bound_ms"`
	Agents          int     `json:"agents"`
	DistinctQueries int     `json:"distinct_queries"`
	WarmupMs        int64   `json:"warmup_ms"`
	MeasureMs       int64   `json:"measure_ms"`
	ColdStartReps   int     `json:"cold_start_reps"`
	SteadyQueries   int     `json:"steady_queries"`
	Short           bool    `json:"short"`
}

func loadConfig(short bool) LoadConfig {
	cfg := LoadConfig{
		Nodes:           1_000_000,
		AvgDegree:       3,
		Seed:            1,
		Dim:             32,
		K:               10,
		Tau:             0.55,
		MaxHops:         2,
		TimeBoundMs:     250,
		Agents:          2 * runtime.GOMAXPROCS(0),
		DistinctQueries: 512,
		WarmupMs:        2000,
		MeasureMs:       8000,
		ColdStartReps:   3,
		SteadyQueries:   16,
		Short:           short,
	}
	if short {
		cfg.Nodes = 50_000
		cfg.Agents = 4
		cfg.DistinctQueries = 64
		cfg.WarmupMs = 250
		cfg.MeasureMs = 1500
		cfg.ColdStartReps = 2
		cfg.SteadyQueries = 8
	}
	return cfg
}

// largeWorld generates the large world and the engine and distinct
// queries the load experiment drives.
func largeWorld(nodes int, seed int64, dim, distinct int) (datagen.LargeProfile, *core.Engine, []*query.Graph, error) {
	p := datagen.LargeWorld(nodes)
	p.Seed = seed
	g := datagen.GenerateLarge(p)
	space, err := (&embed.Model{Cfg: embed.Config{Dim: dim}}).SpaceFor(g)
	if err != nil {
		return p, nil, nil, err
	}
	eng, err := core.NewEngine(g, space, nil)
	if err != nil {
		return p, nil, nil, err
	}
	return p, eng, datagen.LargeQueries(g, p, distinct), nil
}

// runLoad generates the large world and measures the three sections;
// -scale/-dim/-epochs/-tau do not apply.
func runLoad(ctx context.Context, p Params) (*Artifact, error) {
	return runLoadConfig(ctx, loadConfig(p.Short))
}

// runLoadConfig is runLoad with an explicit configuration (tests shrink
// it below even the -short sizes).
func runLoadConfig(ctx context.Context, cfg LoadConfig) (*Artifact, error) {
	p, eng, queries, err := largeWorld(cfg.Nodes, cfg.Seed, cfg.Dim, cfg.DistinctQueries)
	if err != nil {
		return nil, err
	}
	art := newArtifact("load", p.Name, eng.Graph())
	art.Config = cfg
	if err := runColdStart(art, eng.Graph(), p, cfg); err != nil {
		return nil, err
	}
	if err := runSteady(art, eng, queries[:cfg.SteadyQueries], cfg); err != nil {
		return nil, err
	}

	// Two closed-loop workloads: the production shape (caches and
	// singleflight in play) and a cache-bypassed one (a random pivot marks
	// every request uncacheable), which measures raw pipeline latency
	// under concurrency and exercises the admission controller's shedding.
	srv := serve.New(eng, serve.Config{})
	base := core.Options{K: cfg.K, Tau: cfg.Tau, MaxHops: cfg.MaxHops,
		TimeBound: time.Duration(cfg.TimeBoundMs) * time.Millisecond}
	load := Load{Clients: cfg.Agents,
		Warmup:  time.Duration(cfg.WarmupMs) * time.Millisecond,
		Measure: time.Duration(cfg.MeasureMs) * time.Millisecond}
	// Each row carries the serving-layer counter deltas across its run
	// (warmup included) and the heap after it: the resident cost of graph
	// + space + warm caches.
	workloads := []struct {
		name   string
		mkOpts func(agent int) core.Options
	}{
		{"zipf (cache-served)", func(int) core.Options { return base }},
		{"pipeline (cache-bypassed)", bypassCache(base, 7700)},
	}
	for _, w := range workloads {
		before := srv.Stats()
		s, err := closedLoop(ctx, srv, queries, load, w.mkOpts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		after := srv.Stats()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		art.add("load", w.name, map[string]float64{
			"result_hits":      float64(after.ResultHits - before.ResultHits),
			"pipeline_runs":    float64(after.PipelineRuns - before.PipelineRuns),
			"flight_shared":    float64(after.FlightShared - before.FlightShared),
			"heap_alloc_bytes": float64(mem.HeapAlloc),
		}).Sample = &s
	}
	return art, nil
}

// bypassCache derives per-agent options that no serving cache can answer:
// a random pivot marks the request uncacheable. Each agent gets its own
// Rng — it is not synchronized.
func bypassCache(base core.Options, seed int64) func(agent int) core.Options {
	return func(agent int) core.Options {
		opts := base
		opts.Strategy = query.RandomPivot
		opts.Rng = rand.New(rand.NewSource(seed + int64(agent)))
		return opts
	}
}

// runColdStart measures the serial-vs-parallel snapshot decode and index
// build, then the seed TSV cold start against the shipped snapshot path.
// Every timing is the best of ColdStartReps: cold-start phases are
// dominated by systematic work, so the minimum is the least noisy
// estimator.
func runColdStart(art *Artifact, g *kg.Graph, p datagen.LargeProfile, cfg LoadConfig) error {
	par := runtime.GOMAXPROCS(0)
	row := func(phase string, workers int, d, serial time.Duration) {
		values := map[string]float64{"workers": float64(workers), "millis": ms(d)}
		if serial > 0 {
			values["speedup_vs_serial"] = float64(serial) / float64(d)
		}
		art.add("cold-start", fmt.Sprintf("%s (workers=%d)", phase, workers), values)
	}

	var snap bytes.Buffer
	if err := kg.WriteSnapshot(&snap, g); err != nil {
		return err
	}
	loadTime := func(workers int) (time.Duration, error) {
		return best(cfg.ColdStartReps, nil, func() error {
			_, err := kg.ReadSnapshotWorkers(bytes.NewReader(snap.Bytes()), workers)
			return err
		})
	}
	serialLoad, err := loadTime(1)
	if err != nil {
		return fmt.Errorf("bench: load snapshot decode (serial): %w", err)
	}
	parLoad, err := loadTime(par)
	if err != nil {
		return fmt.Errorf("bench: load snapshot decode (parallel): %w", err)
	}
	row("snapshot-load", 1, serialLoad, 0)
	row("snapshot-load", par, parLoad, serialLoad)

	// Index build: the builder fill is regenerated outside the timed
	// region, so the phase times exactly Builder.BuildWorkers (CSR thread
	// plus derived search indexes).
	buildTime := func(workers int) time.Duration {
		var b *kg.Builder
		d, _ := best(cfg.ColdStartReps, func() { b = datagen.GenerateLargeBuilder(p) },
			func() error { _ = b.BuildWorkers(workers); return nil })
		return d
	}
	serialBuild := buildTime(1)
	row("index-build", 1, serialBuild, 0)
	row("index-build", par, buildTime(par), serialBuild)

	// The seed cold-start path: TSV parse + full index build, what every
	// pre-snapshot deployment pays on restart. One rep — it dwarfs the
	// snapshot path. The final pair is the operator-facing total: seed
	// cold start before, parallel snapshot load after.
	var tsv bytes.Buffer
	if err := kg.WriteTriples(&tsv, g); err != nil {
		return err
	}
	tsvTime, err := best(1, nil, func() error {
		_, err := kg.ReadTriples(bytes.NewReader(tsv.Bytes()))
		return err
	})
	if err != nil {
		return fmt.Errorf("bench: load tsv cold start: %w", err)
	}
	row("cold-start total: tsv parse + serial build", 1, tsvTime, 0)
	row("cold-start total: parallel snapshot load", par, parLoad, tsvTime)
	return nil
}

// runSteady measures the per-sub-search arena cost on the big world: a
// weighter and searcher per query, allocated proportionally to the states
// the search pushes, not to the graph. The load queries are single
// anchored edges, so each compiles to exactly one sub-query. The row keeps
// the name it had when the weighter still paged its m(u) cache, so the
// committed artifact's rows line up.
func runSteady(art *Artifact, eng *core.Engine, qs []*query.Graph, cfg LoadConfig) error {
	plans := make([]*core.Plan, len(qs))
	for i, q := range qs {
		p, err := eng.Compile(q, core.Options{Tau: cfg.Tau, MaxHops: cfg.MaxHops})
		if err != nil {
			return err
		}
		if n := p.Subqueries(); n != 1 {
			return fmt.Errorf("bench: load query %d compiles to %d sub-queries, want 1", i, n)
		}
		plans[i] = p
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var h Hist
	for _, p := range plans {
		if err := h.Time(func() error {
			s, err := eng.Searcher(p, 0)
			if err != nil {
				return err
			}
			for j := 0; j < cfg.K; j++ {
				if _, ok := s.Next(); !ok {
					break
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	art.add("steady-state", "paged arena + adaptive end sets", map[string]float64{
		"queries":            float64(len(plans)),
		"mean_us":            us(h.Mean()),
		"alloc_mb_per_query": float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(len(plans)),
	})
	return nil
}

// closedLoop drives one workload against srv: every agent issues
// requests back to back, drawing queries zipf-skewed from qs with the
// options mkOpts built for it. The warmup phase fills the caches and the
// admission estimator; only the measure phase is recorded.
func closedLoop(ctx context.Context, srv *serve.Engine, qs []*query.Graph, load Load,
	mkOpts func(agent int) core.Options) (Sample, error) {
	pick := zipfPickers(load.Clients, len(qs), 1000)
	opts := make([]core.Options, load.Clients)
	for a := range opts {
		opts[a] = mkOpts(a)
	}
	s := Drive(ctx, load, func(ctx context.Context, a, _ int) error {
		_, err := srv.Search(ctx, qs[pick[a].Uint64()], opts[a])
		return err
	})
	if s.Hist.N() == 0 && s.Err != nil {
		return s, fmt.Errorf("bench: closed loop recorded no successful request: %w", s.Err)
	}
	return s, nil
}
