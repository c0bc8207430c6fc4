// Shard experiment: scatter-gather scaling of the in-process sharded
// engine (internal/shard, core.NewShardedEngine) on the multi-sub-query
// workload (BENCH_shard.json).
//
// Every number is measured, from real executions: end-to-end per-query
// latency of the sharded engine on this host against the single-engine
// baseline, and the per-shard A* expansion counts of the same runs. On a
// single-core host the sharded run cannot be faster — A* path enumeration
// over the partitioned first hops is essentially conserved (reported as
// work_vs_single, ~1.0; slightly below 1 when truncated shard graphs
// tighten the m(u) pruning bound, slightly above from per-shard anchor
// re-expansion) — so the measured delta *is* the cross-shard machinery
// cost: projection, match remapping, the k-way merge. That overhead is
// reported as overhead_pct. balance = makespan/total work says how evenly
// the partition spread the search: 1/N is a perfect partition, 1.0 means
// one shard owns all the work. halo_fallbacks counts searches the
// partition could not serve (MaxHops beyond the halo); the rows only
// price scatter-gather when it is 0. Every sharded answer is checked
// against the single engine's as it is measured.
package bench

import (
	"context"
	"fmt"
	"time"

	"semkg/internal/core"
	"semkg/internal/datagen"
	"semkg/internal/shard"
)

// ShardConfig is the configuration embedded in the shard artifact.
type ShardConfig struct {
	K           int `json:"k"`
	Queries     int `json:"queries"`
	Repetitions int `json:"repetitions"`
}

// runShard measures the sharded engine at 1/2/4/8 shards against the
// single-engine baseline on the paper-scale dataset.
func runShard(ctx context.Context, p Params) (*Artifact, error) {
	env, err := p.env(datagen.DBpediaLike)
	if err != nil {
		return nil, err
	}
	art := env.artifact("shard")
	var cfg ShardConfig
	if err := runInprocShard(ctx, art, &cfg, env, p.Short); err != nil {
		return nil, err
	}
	art.Config = cfg
	return art, nil
}

// runInprocShard is the in-process section: the multi-sub-query shapes
// (Medium + Complex), where one query fans out into several concurrent
// sub-query searches, each of which sharding further partitions.
func runInprocShard(ctx context.Context, art *Artifact, cfg *ShardConfig, env *Env, short bool) error {
	var qs []datagen.GenQuery
	qs = append(qs, env.Dataset.Medium...)
	qs = append(qs, env.Dataset.Complex...)
	if len(qs) == 0 {
		return fmt.Errorf("bench: environment has no multi-sub-query workload")
	}
	const k = 20
	reps := 10
	if short {
		reps = 3
	}
	opts := env.SearchOptions(k)
	cfg.K, cfg.Queries, cfg.Repetitions = k, len(qs), reps

	// workload runs reps passes over the queries through search, returning
	// the per-query latencies and the accumulated A* expansions.
	workload := func(search func(q *datagen.GenQuery) (*core.Result, error)) (Sample, float64, error) {
		work := 0.0
		s := Drive(ctx, Load{Requests: reps * len(qs)}, func(_ context.Context, _, i int) error {
			q := &qs[i%len(qs)]
			res, err := search(q)
			if err != nil {
				return fmt.Errorf("bench: %s: %w", q.Name, err)
			}
			for _, st := range res.SearchStats {
				work += float64(st.Popped)
			}
			return nil
		})
		return s, work, s.Err
	}

	// Baseline: the single engine on the same queries. Its answers are
	// the reference every sharded answer is held to.
	want := make(map[*datagen.GenQuery]*core.Result, len(qs))
	baseline, singleWork, err := workload(func(q *datagen.GenQuery) (*core.Result, error) {
		r, err := env.Engine.Search(ctx, q.Graph, opts)
		want[q] = r
		return r, err
	})
	if err != nil {
		return err
	}
	art.add("in-process", "single engine", nil).Sample = &baseline

	for _, n := range []int{1, 2, 4, 8} {
		pStart := time.Now()
		se, err := core.NewShardedEngine(env.Engine, shard.Options{Shards: n})
		if err != nil {
			return err
		}
		partition := time.Since(pStart)

		// Per-query A* expansions: summed over shards, and the heaviest
		// single shard's count.
		var totalWork, makespanWork float64
		s, shardedWork, err := workload(func(q *datagen.GenQuery) (*core.Result, error) {
			r, err := se.Search(ctx, q.Graph, opts)
			if err != nil {
				return nil, err
			}
			if err := sameScores(r, want[q]); err != nil {
				return nil, fmt.Errorf("%d shards diverge from the single engine: %w", n, err)
			}
			if len(r.ShardEffort) != n {
				return nil, fmt.Errorf("%d shards reported effort for %d", n, len(r.ShardEffort))
			}
			sum, heaviest := 0, 0
			for _, st := range r.ShardEffort {
				sum += st.Popped
				heaviest = max(heaviest, st.Popped)
			}
			totalWork += float64(sum)
			makespanWork += float64(heaviest)
			return r, nil
		})
		if err != nil {
			return err
		}
		runs := float64(s.Ops)
		st := se.Deployment().Sharded
		values := map[string]float64{
			"shards":             float64(n),
			"partition_ms":       ms(partition),
			"replication_factor": st.ReplicationFactor,
			"overhead_pct":       100 * (s.MeanUs - baseline.MeanUs) / baseline.MeanUs,
			"work_total":         totalWork / runs,
			"work_makespan":      makespanWork / runs,
			"halo_fallbacks":     float64(st.Fallbacks),
		}
		if singleWork > 0 {
			values["work_vs_single"] = shardedWork / singleWork
		}
		if totalWork > 0 {
			values["balance"] = makespanWork / totalWork
		}
		art.add("in-process", fmt.Sprintf("%d shards", n), values).Sample = &s
	}
	return nil
}

// sameScores reports how got's ranked score vector differs from want's.
// Entities may legally differ inside a tie group; the scores may not.
func sameScores(got, want *core.Result) error {
	if len(got.Answers) != len(want.Answers) {
		return fmt.Errorf("%d answers, want %d", len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if d := got.Answers[i].Score - want.Answers[i].Score; d > 1e-9 || d < -1e-9 {
			return fmt.Errorf("rank %d scores %v, want %v", i, got.Answers[i].Score, want.Answers[i].Score)
		}
	}
	return nil
}
