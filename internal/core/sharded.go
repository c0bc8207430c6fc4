// In-process sharded execution: NewShardedEngine partitions the knowledge
// graph into N shard graphs (internal/shard) and runs the engine's one
// gather pipeline over them — every sub-query search fans out across the
// shards as local match sources, and the per-shard streams gather through
// a bounds-aware merger (internal/merge) into the same TA assembly the
// whole-graph engine runs.
//
// Correctness rests on three invariants (see DESIGN.md, "Scatter-gather"):
//
//  1. First-hop ownership partitions the work: every match is a path of
//     at least one edge, and each shard enumerates exactly the paths whose
//     first hop lands on a node it owns. First hops partition the path
//     space (one first hop per path), anchor fan-out spreads them across
//     shards even for single-entity anchors, and any such path lies
//     entirely inside the owner's shard graph (all its nodes are within
//     Halo >= MaxHops hops of the owned first hop; the anchor is one hop
//     away) — so the per-shard match streams are an exact, disjoint
//     partition of the global stream, with identical path semantic
//     similarities.
//  2. Semantics are resolved once, globally: the query is decomposed, φ is
//     matched and predicates are resolved against the base graph, then
//     *projected* into each shard. Shards never re-resolve against their
//     truncated vocabularies (which would diverge — the abbreviation
//     fallback and predicate resolution depend on what exists globally).
//  3. The gather is demand-driven and deterministically tie-broken: the
//     merged per-sub-query streams are sorted exactly like a single
//     searcher's output, so the TA assembly terminates under the same
//     L_k >= U_max condition and returns a top-k with the same score
//     multiset.

package core

import (
	"context"
	"fmt"
	"runtime"

	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/shard"
	"semkg/internal/transform"
)

// ShardConfig sizes a sharded engine. The zero value gives 4 shards with
// the default halo.
type ShardConfig struct {
	// Shards is the number of shard graphs. 0 = default 4.
	Shards int
	// Halo is the replication radius in hops (shard.Options.Halo); it
	// bounds the MaxHops a sharded search can serve — deeper searches
	// transparently fall back to the whole graph. 0 = shard.DefaultHalo.
	Halo int
}

func (c ShardConfig) withDefaults() ShardConfig {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Halo <= 0 {
		c.Halo = shard.DefaultHalo
	}
	return c
}

// NewShardedEngine partitions base's graph and derives from base an engine
// that answers by scatter-gather over the partition: it shares base's
// world (global compilation, answer rendering) and gathers its runs from
// one local source per (shard, sub-query). Results are equivalent to
// base's: same answer set and scores for SGQ, same time-bound contract
// for TBQ. The partition is deterministic; building it costs one BFS plus
// one subgraph index build per shard.
func NewShardedEngine(base *Engine, cfg ShardConfig) (*Engine, error) {
	if base == nil {
		return nil, fmt.Errorf("core: nil base engine")
	}
	cfg = cfg.withDefaults()
	set, err := shard.Partition(base.Graph(), shard.Options{Shards: cfg.Shards, Halo: cfg.Halo})
	if err != nil {
		return nil, err
	}
	return NewShardedEngineFromSet(base, set)
}

// NewShardedEngineFromSet derives the engine from an existing partition of
// base's graph — the cold-start path when shards were loaded individually
// from shard snapshots (shard.ReadShard + shard.Assemble).
func NewShardedEngineFromSet(base *Engine, set *shard.Set) (*Engine, error) {
	if base == nil || set == nil {
		return nil, fmt.Errorf("core: nil base engine or shard set")
	}
	if set.Base() != base.Graph() {
		return nil, fmt.Errorf("core: shard set partitions a different graph than the base engine serves")
	}
	ss := &sourceSet{
		backend: shardedBackend{set},
		shards:  set.Len(),
		workers: runtime.GOMAXPROCS(0),
	}
	return base.over(ss), nil
}

// BuildShardedEngine is BuildEngine plus partitioning: the construction
// path semkgd -shards uses.
func BuildShardedEngine(g *kg.Graph, model *embed.Model, lib *transform.Library, cfg ShardConfig) (*Engine, error) {
	base, err := BuildEngine(g, model, lib)
	if err != nil {
		return nil, err
	}
	return NewShardedEngine(base, cfg)
}

// ShardedStats is a point-in-time summary of an in-process partition,
// exported by semkgd under the "semkgd_shard" expvar key.
type ShardedStats struct {
	// Shards and Halo echo the partition configuration.
	Shards int `json:"shards"`
	Halo   int `json:"halo"`
	// Workers is the exact-mode scatter pool size.
	Workers int `json:"workers"`
	// Searches counts sharded pipeline executions; Fallbacks counts
	// searches answered from the whole graph because MaxHops exceeded Halo.
	Searches  uint64 `json:"sharded_searches"`
	Fallbacks uint64 `json:"halo_fallbacks"`
	// ReplicationFactor is (sum of shard nodes) / (base nodes): 1.0 means
	// no halo overlap, N means every shard replicated the whole graph.
	ReplicationFactor float64 `json:"replication_factor"`
	// PerShard summarizes each shard graph.
	PerShard []shard.Stats `json:"per_shard"`
}

// shardedBackend opens one local match source per (shard, sub-query) of an
// in-process partition.
type shardedBackend struct{ set *shard.Set }

// serves: the shard graphs cannot contain paths longer than the halo.
func (b shardedBackend) serves(opts Options) bool { return opts.MaxHops <= b.set.Halo() }

// open projects the plan's wire blueprints into every shard afresh, so a
// plan compiled before a resharding swap runs over the partition it finds.
func (b shardedBackend) open(_ context.Context, p *Plan) ([][]matchSource, func() error, error) {
	wire, err := p.WireBlueprints()
	if err != nil {
		return nil, nil, err
	}
	sources := make([][]matchSource, len(p.subs))
	sopts := p.copts.searchOptions()
	for s := range b.set.Len() { // shard-major: the merger's tie-break order
		sh := b.set.Shard(s)
		for i := range wire {
			proj, err := sh.Project(&wire[i])
			if err != nil {
				return nil, nil, err
			}
			if proj == nil {
				continue // this shard cannot contribute to sub-query i
			}
			src, err := sh.NewSource(proj, sopts)
			if err != nil {
				return nil, nil, err
			}
			sources[i] = append(sources[i], src)
		}
	}
	return sources, nil, nil
}

func (b shardedBackend) stats(ss *sourceSet) ShardedStats {
	st := ShardedStats{
		Shards:    ss.shards,
		Halo:      b.set.Halo(),
		Workers:   ss.workers,
		Searches:  ss.searches.Load(),
		Fallbacks: ss.fallbacks.Load(),
		PerShard:  b.set.AllStats(),
	}
	total := 0
	for _, s := range st.PerShard {
		total += s.Nodes
	}
	if n := b.set.Base().NumNodes(); n > 0 {
		st.ReplicationFactor = float64(total) / float64(n)
	}
	return st
}
