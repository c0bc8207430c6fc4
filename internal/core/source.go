// The match-source seam: the one place the deployment shapes differ.
// Every engine — whole-graph, in-process sharded, resharding — runs the
// single gather pipeline of stream.go; what varies is only whether a
// sub-query searches the whole graph or fans out across the shards of a
// partition. See DESIGN.md, "Scatter-gather".

package core

import (
	"sync/atomic"

	"semkg/internal/astar"
	"semkg/internal/shard"
)

// matchSource is one (shard, sub-query) search of a run, yielding matches
// in base-graph ids: a *shard.Source, an A* searcher over the whole graph
// or over one shard.
type matchSource interface {
	// Next is the sorted pull: the next match in non-increasing pss order.
	Next() (astar.Match, bool)
	// Stats reports the search's A* effort.
	Stats() astar.Stats
	// Shard is the 1-based shard the source searches; 0 for the whole
	// graph.
	Shard() int
}

// sourceSet is the swappable half of an engine: an in-process partition
// and the counters the monitoring surfaces export. An engine without one
// searches the whole graph; resharding swaps one in atomically.
type sourceSet struct {
	set *shard.Set

	searches  atomic.Uint64
	fallbacks atomic.Uint64
}

// inherit carries prev's cumulative counters over (live-ingestion
// rebuilds construct a fresh source set per generation; the monitoring
// surface stays monotonic). A nil prev is a no-op.
func (ss *sourceSet) inherit(prev *sourceSet) {
	if prev == nil {
		return
	}
	ss.searches.Add(prev.searches.Load())
	ss.fallbacks.Add(prev.fallbacks.Load())
}

// Deployment is a point-in-time description of where an engine's runs get
// their matches: the one shape/stats accessor the monitoring surfaces
// (semkgd's expvars and /healthz) read, however often the engine's source
// set has been swapped.
type Deployment struct {
	// Shards is the partition size; 0 when searching the whole graph.
	Shards int
	// Resharding reports a whole-graph phase whose background partition
	// has not landed (yet, or ever — see ReshardConfig.OnError).
	Resharding bool
	// Sharded is set over a partition.
	Sharded *ShardedStats
}

// Deployment describes e's current source set.
func (e *Engine) Deployment() Deployment {
	ss := e.sources.Load()
	if ss == nil {
		return Deployment{Resharding: e.resharding}
	}
	st := ss.stats()
	return Deployment{Shards: st.Shards, Sharded: &st}
}

// WholeGraph reports whether e is currently answering from the
// unpartitioned graph with local searchers — a plain engine, or a
// resharding engine still in its unsharded phase. It is the condition for
// sub-query sharing (NewSubSearch/StreamPlanShared): over a partition one
// sub-query is many per-shard enumerations, each keyed by that partition,
// so there is no single enumeration to share.
func (e *Engine) WholeGraph() bool { return e.sources.Load() == nil }

// scatter is one run's opened sources.
type scatter struct {
	// sources[sub] lists sub-query sub's sources in shard order.
	sources [][]matchSource
	// shards is the partition size, 0 over the whole graph.
	shards int
}

// openSources picks where this run's matches come from: the shared
// enumerations the caller supplied (whole-graph, exact mode), the
// engine's partitioned source set when it can serve opts, or the whole
// graph.
func (e *Engine) openSources(p *Plan, opts Options, shared []*SharedSearch) (*scatter, error) {
	if ss := e.sources.Load(); ss != nil && shared == nil {
		if ss.serves(opts) {
			ss.searches.Add(1)
			sources, err := ss.open(p)
			return &scatter{sources: sources, shards: ss.set.Len()}, err
		}
		ss.fallbacks.Add(1)
	}
	sources, err := e.wholeGraphSources(p, shared)
	return &scatter{sources: sources}, err
}

// wholeGraphSources instantiates one local source per sub-query over the
// unpartitioned graph: a fresh private searcher, or — where shared[i] is
// non-nil — a new cursor over a shared enumeration. Weighters and
// searchers hold per-run mutable state, so every run gets its own; the φ
// sets and weight rows are shared.
func (e *Engine) wholeGraphSources(p *Plan, shared []*SharedSearch) ([][]matchSource, error) {
	sources := make([][]matchSource, len(p.subs))
	for i := range p.subs {
		if shared != nil && shared[i] != nil {
			sources[i] = []matchSource{shard.WholeGraphSource(&sharedCursor{s: shared[i]})}
			continue
		}
		sr, err := e.subSearcher(p, i)
		if err != nil {
			return nil, err
		}
		sources[i] = []matchSource{shard.WholeGraphSource(sr)}
	}
	return sources, nil
}
