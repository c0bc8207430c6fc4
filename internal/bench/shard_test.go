package bench

import (
	"context"
	"testing"
)

// TestRunShardShape is the shard-experiment acceptance smoke: the
// artifact covers the 1/2/4/8 curve; every sharded answer measured equals
// the single engine's (the run fails otherwise); no search fell back to
// the whole graph; every shard reported its effort; and the work the
// partition distributed is the work the single engine did.
func TestRunShardShape(t *testing.T) {
	env := testEnv(t)
	art := env.artifact("shard")
	var cfg ShardConfig
	if err := runInprocShard(context.Background(), art, &cfg, env, true); err != nil {
		t.Fatal(err)
	}
	art.Config = cfg
	checkWritten(t, art)
	rows := section(art, "in-process")
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 (single engine + 1/2/4/8 shards)", len(rows))
	}
	if rows[0].Sample.MeanUs <= 0 || rows[0].Sample.Ops != cfg.Queries*cfg.Repetitions {
		t.Fatalf("no baseline measurement: %+v", rows[0].Sample)
	}
	for _, r := range rows[1:] {
		v := r.Values
		if r.Sample.MeanUs <= 0 || r.Sample.Errors != 0 {
			t.Fatalf("%s: degenerate sample %+v", r.Name, r.Sample)
		}
		if v["work_total"] <= 0 || v["balance"] <= 0 || v["balance"] > 1.0001 {
			t.Fatalf("%s: degenerate work accounting %v", r.Name, v)
		}
		if v["replication_factor"] < 1 || v["replication_factor"] > v["shards"]+0.001 {
			t.Fatalf("%s: replication factor %v outside [1, shards]", r.Name, v["replication_factor"])
		}
		if v["halo_fallbacks"] != 0 {
			t.Fatalf("%s: %v searches fell back to the whole graph", r.Name, v["halo_fallbacks"])
		}
		// ShardEffort is populated and adds up: the per-shard expansions
		// sum to about the single engine's (the path enumeration
		// partitions; see the package comment on work_vs_single).
		if v["work_makespan"] <= 0 || v["work_vs_single"] < 0.8 || v["work_vs_single"] > 1.5 {
			t.Fatalf("%s: shard effort %v (makespan %v) is %.2fx the single engine's",
				r.Name, v["work_total"], v["work_makespan"], v["work_vs_single"])
		}
	}
}
