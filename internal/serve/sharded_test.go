package serve

import (
	"bytes"
	"context"
	"testing"

	"semkg/internal/core"
	"semkg/internal/kg"
	"semkg/internal/shard"
)

// shardedTestEngine derives a 2-shard scatter-gather engine from the
// motivating-example engine.
func shardedTestEngine(t *testing.T) *core.Engine {
	t.Helper()
	se, err := core.NewShardedEngine(testEngine(t), shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return se
}

// TestServingOverShardedEngine: the serving layer works unchanged over a
// sharded engine — cold run and warm cache hit are byte-identical, and
// the answers match the single-engine serving path.
func TestServingOverShardedEngine(t *testing.T) {
	ctx := context.Background()
	single := New(testEngine(t), Config{})
	sharded := New(shardedTestEngine(t), Config{})

	want, err := single.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sharded.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(answersJSON(t, cold), answersJSON(t, want)) {
		t.Fatalf("sharded serving answers differ from single-engine serving:\n%s\n%s",
			answersJSON(t, cold), answersJSON(t, want))
	}
	warm, err := sharded.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireJSON(t, cold), wireJSON(t, warm)) {
		t.Fatal("warm cache hit not byte-identical over sharded engine")
	}
	st := sharded.Stats()
	if st.ResultHits != 1 || st.PipelineRuns != 1 {
		t.Fatalf("stats = %+v, want 1 result hit and 1 pipeline run", st)
	}
}

// TestServingShardedStreamReplay: a sharded execution streams live, with
// per-shard progress, and a result-cache hit replays its result as one
// ResultEvent.
func TestServingShardedStreamReplay(t *testing.T) {
	ctx := context.Background()
	srv := New(shardedTestEngine(t), Config{})
	live, err := srv.Stream(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	liveEvents, res := drainStream(t, live)
	checkLive(t, "sharded live", liveEvents, res)
	sawShard := false
	for _, ev := range liveEvents {
		if pe, ok := ev.(core.ProgressEvent); ok && pe.Shard > 0 {
			sawShard = true
		}
	}
	if !sawShard {
		t.Fatal("no per-shard progress in the live stream")
	}
	replay, err := srv.Stream(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkSettled(t, "sharded cache hit", replay, res)
}

// TestApplyRebuildsShardedEngine: live ingestion over a sharded serving
// layer re-partitions the committed graph — the new entity is owned,
// searchable, and the generation advanced exactly once.
func TestApplyRebuildsShardedEngine(t *testing.T) {
	ctx := context.Background()
	srv := New(shardedTestEngine(t), Config{
		Build: func(g *kg.Graph) (*core.Engine, error) {
			eng, err := testBuild()(g)
			if err != nil {
				return nil, err
			}
			return core.NewShardedEngine(eng, shard.Options{Shards: 2})
		},
	})
	d := srv.NewDelta()
	if err := d.ApplyTriple("BMW_i9", "type", "Automobile"); err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyTriple("BMW_i9", "assembly", "Germany"); err != nil {
		t.Fatal(err)
	}
	info, err := srv.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 {
		t.Fatalf("generation = %d, want 1", info.Generation)
	}
	if d := srv.Engine().Deployment(); d.Shards != 2 {
		t.Fatalf("post-apply engine deployment %+v, want 2 shards", d)
	}
	res, err := srv.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.Answers {
		if a.PivotName == "BMW_i9" {
			found = true
		}
	}
	if !found {
		t.Fatal("ingested entity not found through the re-partitioned sharded engine")
	}
}
