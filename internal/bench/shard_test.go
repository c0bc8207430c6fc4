package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"semkg/internal/datagen"
	"semkg/internal/embed"
)

// TestRunShardShape is the shard-experiment acceptance smoke: the
// artifact covers the 1/2/4/8 curve; every sharded answer measured equals
// the single engine's (RunShard fails otherwise); no search fell back to
// the whole graph; every shard reported its effort; and the work the
// partition distributed is the work the single engine did.
func TestRunShardShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an embedding; skipped in -short")
	}
	env, err := Cached(Config{
		Profile: datagen.DBpediaLike(0.2),
		Embed:   embed.Config{Dim: 24, Epochs: 60, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunShard(env, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Rows); got != 4 {
		t.Fatalf("rows = %d, want 4 (1/2/4/8 shards)", got)
	}
	if res.BaselineUs <= 0 {
		t.Fatal("no baseline measurement")
	}
	for i, row := range res.Rows {
		if row.WorkTotal <= 0 || row.Balance <= 0 || row.Balance > 1.0001 {
			t.Fatalf("row %d: degenerate work accounting %+v", i, row)
		}
		if row.ReplicationFactor < 1 || row.ReplicationFactor > float64(row.Shards)+0.001 {
			t.Fatalf("row %d: replication factor %v outside [1, shards]", i, row.ReplicationFactor)
		}
		if row.Fallbacks != 0 {
			t.Fatalf("row %d: %d searches fell back to the whole graph", i, row.Fallbacks)
		}
		// ShardEffort is populated and adds up: the per-shard expansions
		// sum to about the single engine's (the path enumeration
		// partitions; see ShardRow.WorkVsSingle).
		if row.WorkMakespan <= 0 || row.WorkVsSingle < 0.8 || row.WorkVsSingle > 1.5 {
			t.Fatalf("row %d: shard effort %v (makespan %v) is %.2fx the single engine's",
				i, row.WorkTotal, row.WorkMakespan, row.WorkVsSingle)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_shard.json")
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ShardResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("artifact does not round-trip: %v", err)
	}
	if len(back.Rows) != len(res.Rows) {
		t.Fatalf("artifact round-trips %d rows, want %d", len(back.Rows), len(res.Rows))
	}
	if res.Render().String() == "" {
		t.Fatal("empty rendering")
	}
}
