// Background resharding: a ReshardingEngine serves a freshly committed
// graph immediately from the whole graph while the shard partition
// rebuilds in a background goroutine, then swaps the partition in as its
// source set — atomically, inside the one engine, so plans compiled
// before the swap keep running after it.
//
// This exists for semkgd -shards ingest: partitioning is a full-graph
// BFS plus one subgraph index build per shard, which at millions of
// nodes costs orders of magnitude more than applying a small delta.
// Rebuilding the partition synchronously inside every ingest commit
// would make ingest latency scale with *graph* size instead of *delta*
// size. The resharding engine decouples them — commits return as soon
// as the whole-graph engine is up, and scatter-gather resumes when the
// background partition lands. Both phases answer from the same
// committed graph, so results are correct throughout; only the
// execution strategy (and its speedup) lags.

package core

import (
	"fmt"
	"sync/atomic"
)

// ReshardConfig configures a background reshard.
type ReshardConfig struct {
	// Shard is the partition shape to rebuild.
	Shard ShardConfig
	// Gate, when non-nil, is called in the background goroutine before
	// partitioning starts. Tests use it to hold the upgrade back and
	// observe the pre-upgrade serving path deterministically.
	Gate func()
	// OnReady is called (from the background goroutine) after the upgrade
	// lands; OnError is called if partitioning fails, in which case the
	// engine keeps serving unsharded indefinitely.
	OnReady func(*ShardedEngine)
	OnError func(error)
}

// ReshardingEngine is an engine that starts out searching the whole
// graph and scatters over a partition of it once the background build
// completes. Construct with NewResharding; safe for concurrent use.
type ReshardingEngine struct {
	*Engine
	se atomic.Pointer[ShardedEngine]
}

// NewResharding returns an engine over base's world serving from the
// whole graph immediately, and kicks off the background partition. prev,
// when it is (or has become) a sharded engine, donates its monotone
// serving counters to the new partition — the same stats inheritance a
// synchronous rebuild performs.
func NewResharding(base *Engine, prev Queryer, cfg ReshardConfig) *ReshardingEngine {
	r := &ReshardingEngine{Engine: base.over(nil)}
	go r.build(base, prev, cfg)
	return r
}

func (r *ReshardingEngine) build(base *Engine, prev Queryer, cfg ReshardConfig) {
	if cfg.Gate != nil {
		cfg.Gate()
	}
	se, err := buildSharded(base, cfg.Shard)
	if err != nil {
		if cfg.OnError != nil {
			cfg.OnError(err)
		}
		return
	}
	ss := se.sources.Load()
	if pe := pipelineOf(prev); pe != nil {
		ss.inherit(pe.sources.Load())
	}
	r.sources.Store(ss)
	r.se.Store(se)
	if cfg.OnReady != nil {
		cfg.OnReady(se)
	}
}

// buildSharded is the fallible half of the background build. Negative
// shard counts are rejected here rather than silently defaulted —
// ShardConfig.withDefaults only fills zeros for the synchronous path,
// where the caller sees the config it passed.
func buildSharded(base *Engine, cfg ShardConfig) (*ShardedEngine, error) {
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("core: reshard: %d shards out of range", cfg.Shards)
	}
	return NewShardedEngine(base, cfg)
}

// Sharded returns the partition as a scatter-gather engine of its own
// (same source set and counters), or nil while the background partition
// is still building (or after it failed).
func (r *ReshardingEngine) Sharded() *ShardedEngine { return r.se.Load() }

// Ready reports whether the upgrade has landed.
func (r *ReshardingEngine) Ready() bool { return r.se.Load() != nil }
