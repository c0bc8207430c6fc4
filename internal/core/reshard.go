// Background resharding: an engine from NewResharding serves a freshly
// committed graph immediately from the whole graph while the shard
// partition rebuilds in a background goroutine, then swaps the partition
// in as its source set — atomically, inside the one engine, so plans
// compiled before the swap keep running after it.
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

import "semkg/internal/shard"

// ReshardConfig configures a background reshard.
type ReshardConfig struct {
	// Shard is the partition shape to rebuild.
	Shard shard.Options
	// Gate, when non-nil, is called in the background goroutine before
	// partitioning starts. Tests use it to hold the upgrade back and
	// observe the pre-upgrade serving path deterministically.
	Gate func()
	// OnReady is called (from the background goroutine) with the landed
	// partition's stats after the upgrade; OnError is called if
	// partitioning fails, in which case the engine keeps serving unsharded
	// indefinitely.
	OnReady func(ShardedStats)
	OnError func(error)
}

// NewResharding returns an engine over base's world serving from the
// whole graph immediately, and kicks off the background partition; its
// Deployment reports Resharding until the partition lands. prev, when it
// is (or has become) a sharded engine, donates its monotone serving
// counters to the new partition, keeping the monitoring surface (semkgd's
// "semkgd_shard" expvar) monotonic across ingest generations. Safe for
// concurrent use.
func NewResharding(base, prev *Engine, cfg ReshardConfig) *Engine {
	r := base.over(nil)
	r.resharding = true
	go r.reshard(base, prev, cfg)
	return r
}

// reshard builds the partition in the background and swaps it in as e's
// source set.
func (e *Engine) reshard(base, prev *Engine, cfg ReshardConfig) {
	if cfg.Gate != nil {
		cfg.Gate()
	}
	se, err := NewShardedEngine(base, cfg.Shard)
	if err != nil {
		if cfg.OnError != nil {
			cfg.OnError(err)
		}
		return
	}
	ss := se.sources.Load()
	if prev != nil {
		ss.inherit(prev.sources.Load())
	}
	e.sources.Store(ss)
	if cfg.OnReady != nil {
		cfg.OnReady(*e.Deployment().Sharded)
	}
}
