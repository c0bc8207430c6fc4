// Shard experiment: scatter-gather scaling of the sharded engine
// (internal/shard, core.ShardedEngine) on the multi-sub-query workload —
// the sharding axis the ROADMAP's production north star calls for. Run via
// `go run ./cmd/kgbench -exp shard` (writes BENCH_shard.json).
//
// Every number is measured, from real executions: end-to-end per-query
// latency of the sharded engine on this host against the single-engine
// baseline, and the per-shard A* expansion counts of the same runs. On a
// single-core host the sharded run cannot be faster — A* path enumeration
// over the partitioned first hops is essentially conserved (reported as
// work_vs_single, ~1.0) — so the measured delta *is* the cross-shard
// machinery cost: projection, match remapping, the k-way merge. That
// overhead is reported as MeasuredOverheadPct. Balance = makespan/total
// work says how evenly the partition spread the search: 1/N is a perfect
// partition, 1.0 means one shard owns all the work. Every sharded answer
// is checked against the single engine's as it is measured.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"semkg/internal/core"
	"semkg/internal/datagen"
)

// ShardRow is one shard-count configuration.
type ShardRow struct {
	Shards int `json:"shards"`
	// PartitionMs is the one-time cost of building the shard graphs.
	PartitionMs float64 `json:"partition_ms"`
	// ReplicationFactor is (sum of shard nodes)/(base nodes).
	ReplicationFactor float64 `json:"replication_factor"`
	// MeasuredMeanUs / MeasuredP50Us are per-query latencies on this host.
	MeasuredMeanUs float64 `json:"measured_mean_us"`
	MeasuredP50Us  float64 `json:"measured_p50_us"`
	// MeasuredOverheadPct is the serial-host overhead vs the single-engine
	// baseline: the real cost of the cross-shard merge machinery.
	MeasuredOverheadPct float64 `json:"measured_overhead_pct"`
	// WorkTotal and WorkMakespan are mean per-query A* expansions: summed
	// over shards, and the heaviest single shard's count.
	WorkTotal    float64 `json:"work_total"`
	WorkMakespan float64 `json:"work_makespan"`
	// WorkVsSingle is the sharded run's total expansions over the single
	// engine's: ~1.0 in practice (the path enumeration partitions);
	// slightly below 1 when truncated shard graphs tighten the m(u)
	// pruning bound, slightly above from per-shard anchor re-expansion.
	WorkVsSingle float64 `json:"work_vs_single"`
	// Balance = WorkMakespan/WorkTotal (1/Shards is ideal).
	Balance float64 `json:"balance"`
	// Fallbacks counts searches the partition could not serve (MaxHops
	// beyond the halo); the rows only price scatter-gather when it is 0.
	Fallbacks uint64 `json:"halo_fallbacks"`
}

// ShardResult is the experiment artifact (BENCH_shard.json).
type ShardResult struct {
	Dataset string `json:"dataset"`
	Scale   string `json:"scale"`
	EnvInfo
	K           int        `json:"k"`
	Queries     int        `json:"queries"`
	Repetitions int        `json:"repetitions"`
	BaselineUs  float64    `json:"baseline_mean_us"`
	Rows        []ShardRow `json:"configs"`
	// Distributed is the measured multi-process section: real shard
	// server processes behind the HTTP coordinator (see distshard.go).
	Distributed *DistShardSection `json:"distributed,omitempty"`
}

// shardWorkload gathers the multi-sub-query shapes (Medium + Complex):
// the workload where one query fans out into several concurrent
// sub-query searches, each of which sharding further partitions.
func shardWorkload(ds *datagen.Dataset) []datagen.GenQuery {
	var out []datagen.GenQuery
	out = append(out, ds.Medium...)
	out = append(out, ds.Complex...)
	return out
}

// RunShard measures the sharded engine at 1/2/4/8 shards against the
// single-engine baseline. short trims repetitions for CI smoke runs.
func RunShard(env *Env, short bool) (*ShardResult, error) {
	qs := shardWorkload(env.Dataset)
	if len(qs) == 0 {
		return nil, fmt.Errorf("bench: environment has no multi-sub-query workload")
	}
	const k = 20
	reps := 10
	if short {
		reps = 3
	}
	opts := env.SearchOptions(k)
	ctx := context.Background()
	res := &ShardResult{
		Dataset:     env.Cfg.Profile.Name,
		Scale:       fmt.Sprintf("%d nodes / %d edges", env.Dataset.Graph.NumNodes(), env.Dataset.Graph.NumEdges()),
		EnvInfo:     CaptureEnv(),
		K:           k,
		Queries:     len(qs),
		Repetitions: reps,
	}

	// Baseline: the single engine on the same queries. Its answers are
	// the reference every sharded answer is held to.
	want := make(map[*datagen.GenQuery]*core.Result, len(qs))
	baselineLat, singleWork, err := runShardWorkload(ctx, reps, qs, func(q *datagen.GenQuery) (*core.Result, error) {
		r, err := env.Engine.Search(ctx, q.Graph, opts)
		want[q] = r
		return r, err
	})
	if err != nil {
		return nil, err
	}
	res.BaselineUs = meanUs(baselineLat)

	for _, n := range []int{1, 2, 4, 8} {
		pStart := time.Now()
		se, err := core.NewShardedEngine(env.Engine, core.ShardConfig{Shards: n})
		if err != nil {
			return nil, err
		}
		partition := time.Since(pStart)

		var totalWork, makespanWork float64
		lat, shardedWork, err := runShardWorkload(ctx, reps, qs, func(q *datagen.GenQuery) (*core.Result, error) {
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
			sum, max := 0, 0
			for _, st := range r.ShardEffort {
				sum += st.Popped
				if st.Popped > max {
					max = st.Popped
				}
			}
			totalWork += float64(sum)
			makespanWork += float64(max)
			return r, err
		})
		if err != nil {
			return nil, err
		}
		runs := float64(len(lat))
		row := ShardRow{
			Shards:            n,
			PartitionMs:       float64(partition.Microseconds()) / 1e3,
			ReplicationFactor: se.Stats().ReplicationFactor,
			MeasuredMeanUs:    meanUs(lat),
			MeasuredP50Us:     percentile(sortedLatencies(lat), 0.5),
			WorkTotal:         totalWork / runs,
			WorkMakespan:      makespanWork / runs,
			Fallbacks:         se.Stats().Fallbacks,
		}
		if singleWork > 0 {
			row.WorkVsSingle = shardedWork / singleWork
		}
		row.MeasuredOverheadPct = 100 * (row.MeasuredMeanUs - res.BaselineUs) / res.BaselineUs
		if row.WorkTotal > 0 {
			row.Balance = row.WorkMakespan / row.WorkTotal
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
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

// runShardWorkload runs reps passes over the workload, returning the
// per-query latencies and the accumulated A* expansions.
func runShardWorkload(ctx context.Context, reps int, qs []datagen.GenQuery,
	search func(q *datagen.GenQuery) (*core.Result, error)) ([]time.Duration, float64, error) {
	var lat []time.Duration
	work := 0.0
	for r := 0; r < reps; r++ {
		for i := range qs {
			start := time.Now()
			res, err := search(&qs[i])
			if err != nil {
				return nil, 0, fmt.Errorf("bench: %s: %w", qs[i].Name, err)
			}
			lat = append(lat, time.Since(start))
			for _, st := range res.SearchStats {
				work += float64(st.Popped)
			}
		}
	}
	return lat, work, nil
}

func meanUs(lat []time.Duration) float64 {
	if len(lat) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return float64(sum) / float64(len(lat)) / float64(time.Microsecond)
}

// WriteJSON stores the artifact.
func (r *ShardResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Render formats the scaling curve as a text table.
func (r *ShardResult) Render() *Table {
	t := &Table{
		Title: fmt.Sprintf("Sharded scatter-gather (%s, %s, k=%d, baseline %.0f µs/query, %d CPUs)",
			r.Dataset, r.Scale, r.K, r.BaselineUs, r.CPUs),
		Header: []string{"shards", "partition ms", "repl", "measured µs", "overhead",
			"balance", "work vs single", "fallbacks"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%d", row.Shards),
			fmt.Sprintf("%.1f", row.PartitionMs),
			fmt.Sprintf("%.1fx", row.ReplicationFactor),
			fmt.Sprintf("%.0f", row.MeasuredMeanUs),
			fmt.Sprintf("%+.1f%%", row.MeasuredOverheadPct),
			fmt.Sprintf("%.2f", row.Balance),
			fmt.Sprintf("%.2fx", row.WorkVsSingle),
			fmt.Sprintf("%d", row.Fallbacks),
		)
	}
	if r.Distributed != nil {
		r.Distributed.renderRows(t)
	}
	return t
}
