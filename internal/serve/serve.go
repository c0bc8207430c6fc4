// Package serve is the engine-level serving layer: it turns one
// *core.Engine — whichever deployment shape its source set gives it
// (whole graph, sharded, distributed, resharding) — into a component fit
// for heavy concurrent traffic. It shares results, not event recordings:
// only a Stream request that starts a pipeline run sees that run's events
// live; every other request receives the finished result.
//
//   - Result cache: an LRU keyed by a canonical hash of (query graph,
//     normalized options). A hit skips the whole pipeline; a streamed hit
//     delivers the cached result as its one event.
//   - Singleflight: N concurrent identical requests run the pipeline once;
//     followers share the leader's result.
//   - Admission control: a bounded worker pool with deadline-aware
//     shedding — a request whose TimeBound cannot cover its projected
//     queue wait is rejected with OverloadedError (HTTP 429/Retry-After)
//     instead of blowing its bound in the queue.
//
// Each pipeline run compiles its own plan; what outlives a request is
// cached results and, for cross-query sharing, sub-query enumerations
// (subcache.go). Both caches and the flight map belong to one engine
// generation: Rebuild publishes a fresh generation with empty ones, and
// every request works inside the generation it loaded, so nothing
// computed on one engine can answer for the next. Every cache and the
// dedup layer are bypassed for non-deterministic requests (random pivot,
// test clocks); admission control applies to every pipeline run.
//
// See DESIGN.md, "Serving layer: caches, dedup, admission".
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"semkg/internal/core"
	"semkg/internal/kg"
	"semkg/internal/query"
)

// Config sizes the serving layer. The zero value gives production-ready
// defaults; negative sizes disable the corresponding component.
type Config struct {
	// ResultCache is the result-cache capacity in entries.
	// 0 = default 1024×Workers; < 0 disables the cache.
	ResultCache int
	// SubCache is the shared sub-search cache capacity in entries (one
	// entry per distinct sub-query blueprint per generation); it is the
	// cross-query sharing layer — see subcache.go.
	// 0 = default 512×Workers; < 0 disables sharing entirely.
	SubCache int
	// Workers bounds concurrent pipeline executions. 0 = GOMAXPROCS.
	Workers int
	// Queue bounds requests waiting for a worker. 0 = 4×Workers;
	// < 0 admits nothing beyond the workers (shed immediately when busy).
	Queue int

	// Build constructs an engine over a newly committed graph; it is
	// required by Apply (live ingestion) and unused otherwise. semkgd
	// supplies a builder that re-derives the predicate space from the
	// loaded embedding model (core.BuildEngine, or core.BuildShardedEngine
	// when serving sharded), padding vectors for predicates the model has
	// never seen.
	Build func(*kg.Graph) (*core.Engine, error)

	// BeforeRun, when non-nil, is invoked by the flight leader after
	// admission: immediately before a quiet run, and right after a live
	// stream's run has started. Either way the flight stays unfinished
	// until it returns. Test instrumentation only (it gates concurrency
	// tests deterministically); leave nil in production.
	BeforeRun func()
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	// Cache defaults scale with the worker count: the fixed sizes were
	// tuned on a single-core toy world, and a multi-core deployment
	// serving the million-node dataset sees proportionally more distinct
	// in-flight queries, so fixed caches thrash exactly when the machine
	// has memory to spare. Single-core keeps the original sizes.
	switch {
	case c.ResultCache == 0:
		c.ResultCache = 1024 * c.Workers
	case c.ResultCache < 0:
		c.ResultCache = 0
	}
	switch {
	case c.SubCache == 0:
		c.SubCache = 512 * c.Workers
	case c.SubCache < 0:
		c.SubCache = 0
	}
	switch {
	case c.Queue == 0:
		c.Queue = 4 * c.Workers
	case c.Queue < 0:
		c.Queue = 0
	}
	return c
}

// generation is everything the serving layer derives from one engine:
// the engine, its number, the two caches and the in-flight executions.
// Rebuild replaces the whole value, so a leader that finishes after a
// swap publishes into caches no new request can reach.
type generation struct {
	eng *core.Engine
	n   uint64

	results *lruCache[*core.Result]
	subs    *lruCache[*subEntry]

	fmu     sync.Mutex
	flights map[string]*flight
}

// Engine is a serving wrapper around one *core.Engine. Safe for
// concurrent use. Results returned from it are shared across callers and
// must be treated as read-only.
type Engine struct {
	cfg Config
	adm *admission

	cur atomic.Pointer[generation]

	// applyMu serializes engine publications (Apply and Rebuild): two
	// racing commits would otherwise each extend the same base graph and
	// silently drop one another's triples, and a direct Rebuild landing
	// between Apply's staleness check and its publication would be
	// overwritten by an engine built from the superseded graph.
	applyMu sync.Mutex

	stats stats
}

// New wraps eng in a serving layer sized by cfg.
func New(eng *core.Engine, cfg Config) *Engine {
	e := &Engine{cfg: cfg.withDefaults()}
	e.adm = newAdmission(e.cfg.Workers, e.cfg.Queue)
	e.publish(eng, 0)
	return e
}

// publish makes eng, numbered n, the served generation with empty caches.
func (e *Engine) publish(eng *core.Engine, n uint64) {
	e.cur.Store(&generation{
		eng:     eng,
		n:       n,
		results: newLRU[*core.Result](e.cfg.ResultCache),
		subs:    newLRU[*subEntry](e.cfg.SubCache),
		flights: make(map[string]*flight),
	})
}

// Engine returns the currently-served engine (whichever the layer was
// built over, or Build last produced).
func (e *Engine) Engine() *core.Engine { return e.cur.Load().eng }

// Rebuild swaps in a new engine (a re-loaded graph or re-trained space)
// as a new generation with empty caches: entries computed against the old
// engine must never answer for the new one. In-flight requests finish on
// the old engine, publishing into the retired generation's caches.
// Rebuild serializes with Apply, so a swap can never be silently
// overwritten by a delta committed against the graph it replaced.
func (e *Engine) Rebuild(eng *core.Engine) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	e.rebuildLocked(eng)
}

// rebuildLocked publishes eng; the caller holds applyMu.
func (e *Engine) rebuildLocked(eng *core.Engine) {
	e.publish(eng, e.cur.Load().n+1)
	e.stats.rebuilds.Add(1)
}

// Generation returns the current engine generation. It increments on
// every Rebuild (and therefore on every non-empty Apply).
func (e *Engine) Generation() uint64 { return e.cur.Load().n }

// Current returns the served engine and its generation as one atomic
// read — the pair a replication primary needs when it opens a stream:
// reading them separately could interleave with an Apply and pair a new
// engine with a stale generation.
func (e *Engine) Current() (*core.Engine, uint64) {
	g := e.cur.Load()
	return g.eng, g.n
}

// RebuildGraph builds an engine over g with Config.Build and publishes
// it through the generation-gated Rebuild. It is the snapshot-resync
// path for replication followers: the whole graph is replaced, the
// caches start empty, and the generation bumps exactly once.
func (e *Engine) RebuildGraph(g *kg.Graph) error {
	if e.cfg.Build == nil {
		return fmt.Errorf("serve: RebuildGraph requires an engine builder (Config.Build)")
	}
	eng, err := e.cfg.Build(g)
	if err != nil {
		return fmt.Errorf("serve: building engine for graph: %w", err)
	}
	e.Rebuild(eng)
	return nil
}

// ErrStaleDelta is returned by Apply for a delta whose base is no longer
// the served graph: another Apply or Rebuild published a newer generation
// after the delta was created. The caller re-reads the graph with
// NewDelta and re-applies its mutations.
var ErrStaleDelta = errors.New("serve: delta base is not the served graph (superseded by a newer generation)")

// ApplyInfo describes a completed Apply.
type ApplyInfo struct {
	// AddedNodes, AddedEdges and Retyped are the delta's mutation counts.
	AddedNodes int `json:"added_nodes"`
	AddedEdges int `json:"added_edges"`
	Retyped    int `json:"retyped"`
	// Nodes and Edges are the committed graph's totals.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Generation is the engine generation now serving the committed
	// graph.
	Generation uint64 `json:"generation"`
	// CommitTime covers Delta.Commit, BuildTime the engine construction.
	CommitTime time.Duration `json:"commit_ns"`
	BuildTime  time.Duration `json:"build_ns"`
}

// Apply commits a delta created with NewDelta, builds an engine over the
// committed graph with Config.Build, and publishes it through the
// generation-gated Rebuild — so the caches invalidate exactly once and
// searches in flight finish against the generation they started on. An
// empty delta is a no-op that reports the current state without bumping
// the generation. Apply calls are serialized; a delta whose base graph
// was superseded while it was being filled fails with ErrStaleDelta.
func (e *Engine) Apply(d *kg.Delta) (ApplyInfo, error) {
	if e.cfg.Build == nil {
		return ApplyInfo{}, fmt.Errorf("serve: Apply requires an engine builder (Config.Build)")
	}
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	cur, gen := e.Current()
	if d.Base() != cur.Graph() {
		return ApplyInfo{}, ErrStaleDelta
	}
	info := ApplyInfo{
		AddedNodes: d.AddedNodes(),
		AddedEdges: d.AddedEdges(),
		Retyped:    d.Retyped(),
	}
	if d.Empty() {
		info.Nodes = cur.Graph().NumNodes()
		info.Edges = cur.Graph().NumEdges()
		info.Generation = gen
		return info, nil
	}
	start := time.Now()
	g := d.Commit()
	info.CommitTime = time.Since(start)
	start = time.Now()
	eng, err := e.cfg.Build(g)
	if err != nil {
		return ApplyInfo{}, fmt.Errorf("serve: building engine for committed graph: %w", err)
	}
	info.BuildTime = time.Since(start)
	e.rebuildLocked(eng)
	e.stats.applies.Add(1)
	info.Nodes = g.NumNodes()
	info.Edges = g.NumEdges()
	info.Generation = e.Generation()
	return info, nil
}

// NewDelta returns an empty delta over the currently-served graph, for
// use with Apply.
func (e *Engine) NewDelta() *kg.Delta {
	return kg.NewDelta(e.Engine().Graph())
}

// Search answers one batch request through the serving layer: result
// cache, then singleflight, then the admission-controlled pipeline. The
// returned Result is shared (possibly with other callers and the cache)
// and must be treated as read-only.
func (e *Engine) Search(ctx context.Context, q *query.Graph, opts core.Options) (*core.Result, error) {
	res, fl, _, err := e.resolve(q, opts, false)
	if err != nil || fl == nil {
		return res, err
	}
	defer fl.leave()
	return fl.wait(ctx)
}

// Stream answers one streaming request through the serving layer. A
// request that starts a pipeline run streams it live; a cache hit or a
// deduplicated request gets a settled stream (see Stream). Validation,
// compile and admission errors are returned synchronously, before any
// event is delivered.
func (e *Engine) Stream(ctx context.Context, q *query.Graph, opts core.Options) (*Stream, error) {
	res, fl, started, err := e.resolve(q, opts, true)
	if err != nil {
		return nil, err
	}
	if fl == nil {
		return hitStream(res), nil
	}
	// Surface pre-pipeline failures (bad request, overload) synchronously.
	select {
	case <-fl.admitted:
	case <-fl.done:
		if fl.err != nil {
			fl.leave()
			return nil, fl.err
		}
	case <-ctx.Done():
		fl.leave()
		return nil, ctx.Err()
	}
	return flightStream(ctx, fl, started), nil
}

// resolve routes one request: a result-cache hit returns the result; a
// non-nil flight means the caller participates in a (possibly shared)
// pipeline execution and must leave() it when done. started reports that
// the caller started the flight; live asks that such a flight run as a
// stream. Everything happens inside the generation loaded here.
func (e *Engine) resolve(q *query.Graph, opts core.Options, live bool) (res *core.Result, fl *flight, started bool, err error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, false, core.BadRequestError{Err: err}
	}
	if err := q.Validate(); err != nil {
		return nil, nil, false, core.BadRequestError{Err: err}
	}
	g := e.cur.Load()
	if !cacheable(opts) {
		e.stats.uncacheable.Add(1)
		fl = newFlight(g)
		go e.lead(fl, "", q, opts, live)
		return nil, fl, true, nil
	}
	key := resultKey(q, opts)
	if res, ok := g.results.Get(key); ok {
		e.stats.resultHits.Add(1)
		return res, nil, false, nil
	}
	e.stats.resultMisses.Add(1)

	// Join the in-flight execution only while it is live: a flight whose
	// last participant already left is cancelled and will yield a partial
	// anytime result, so a fresh request starts a new flight (replacing
	// the old one in the map).
	g.fmu.Lock()
	if fl, ok := g.flights[key]; ok && fl.join() {
		g.fmu.Unlock()
		e.stats.flightShared.Add(1)
		return nil, fl, false, nil
	}
	fl = newFlight(g)
	g.flights[key] = fl
	g.fmu.Unlock()
	go e.lead(fl, key, q, opts, live)
	return nil, fl, true, nil
}

// lead is the flight leader: compile, admission, pipeline, publication
// into the flight's generation. key == "" marks an unregistered
// (uncacheable) flight.
func (e *Engine) lead(fl *flight, key string, q *query.Graph, opts core.Options, live bool) {
	res, err := e.run(fl, q, opts, key != "", live)
	if key != "" {
		g := fl.gen
		// Publish only complete results: a run cut at its deadline is
		// flagged approximate, and a cancelled flight carries a partial
		// (anytime) result. Publish before deregistering the flight, so a
		// request arriving in between finds either the cache entry or the
		// still-unfinished flight, never a gap that would re-run the
		// pipeline.
		if err == nil && res != nil && !res.Approximate && fl.ctx.Err() == nil {
			g.results.Add(key, res)
		}
		g.fmu.Lock()
		// Deregister only our own flight: a request that found this flight
		// dying may already have replaced it with a fresh one.
		if cur, ok := g.flights[key]; ok && cur == fl {
			delete(g.flights, key)
		}
		g.fmu.Unlock()
	}
	fl.finish(res, err)
}

// run executes the pipeline for one flight on its generation's engine:
// compile, admission, then the run itself — quiet, or as the live stream
// of a flight a Stream request started. cached gates the sub-search
// sharing layer: a request too nondeterministic to cache is equally too
// nondeterministic to share. A run may fail instead of answering (a
// distributed backing engine losing a whole shard, for example); lead()
// never caches errored flights, so the next request retries the pipeline.
func (e *Engine) run(fl *flight, q *query.Graph, opts core.Options, cached, live bool) (*core.Result, error) {
	g := fl.gen
	plan, err := g.eng.Compile(q, opts)
	if err != nil {
		return nil, err
	}
	if err := e.adm.acquire(fl.ctx, opts.TimeBound); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() { e.adm.release(time.Since(start)) }()
	e.stats.pipelineRuns.Add(1)
	if live {
		if fl.live, err = e.streamFor(fl.ctx, g, plan, opts, cached); err != nil {
			return nil, err
		}
	}
	close(fl.admitted)
	if e.cfg.BeforeRun != nil {
		e.cfg.BeforeRun()
	}
	if !live {
		return e.searchFor(fl.ctx, g, plan, opts, cached)
	}
	if err := fl.live.Err(); err != nil {
		return nil, err
	}
	return fl.live.Result(), nil
}
