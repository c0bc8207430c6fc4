package serve

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"semkg/internal/core"
	"semkg/internal/kg"
	"semkg/internal/query"
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
	// Sub-search sharing is a whole-graph optimization: over a partition
	// one sub-query is many per-shard enumerations, so the layer must
	// bypass the sub-search cache, not fill it.
	if st.SubHits != 0 || st.SubEntries != 0 {
		t.Fatalf("sub-search cache active over a partition: %+v", st)
	}
}

// TestDistServedMixParity extends the zipf served-mix property to the
// partitioned path: a skewed mix of overlapping requests produces
// byte-identical answers whether the backing engine is the local engine
// or the scatter-gather engine over two shards, under concurrency, with
// result caching live on both. The sub-search sharing layer stays out of
// the partitioned path by design (it shares raw whole-graph
// enumerations), which must not change any answer.
func TestDistServedMixParity(t *testing.T) {
	queries := []func() *query.Graph{q117, clubQuery, manufacturerQuery}
	ks := []int{1, 2, 3, 10}
	taus := []float64{0.6, 0.75}

	rng := rand.New(rand.NewSource(1009))
	zipf := rand.NewZipf(rng, 1.4, 1.0, uint64(len(queries)*len(ks)*len(taus)-1))
	type request struct {
		q    *query.Graph
		opts core.Options
	}
	const n = 48
	reqs := make([]request, n)
	for i := range reqs {
		v := int(zipf.Uint64())
		reqs[i] = request{
			q:    queries[v%len(queries)](),
			opts: core.Options{K: ks[(v/len(queries))%len(ks)], Tau: taus[(v/len(queries)/len(ks))%len(taus)]},
		}
	}

	local := New(testEngine(t), Config{Queue: 128})
	sharded := New(shardedTestEngine(t), Config{Queue: 128})

	type out struct {
		local, sharded []byte
		err            error
	}
	results := make([]out, n)
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r request) {
			defer wg.Done()
			lres, err := local.Search(context.Background(), r.q, r.opts)
			if err != nil {
				results[i].err = err
				return
			}
			sres, err := sharded.Search(context.Background(), r.q, r.opts)
			if err != nil {
				results[i].err = err
				return
			}
			results[i].local = answersJSON(t, lres)
			results[i].sharded = answersJSON(t, sres)
		}(i, r)
	}
	wg.Wait()

	for i, o := range results {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if !bytes.Equal(o.local, o.sharded) {
			t.Errorf("request %d (K=%d tau=%g): sharded answers differ from local:\n%s\nvs\n%s",
				i, reqs[i].opts.K, reqs[i].opts.Tau, o.sharded, o.local)
		}
	}

	lst, sst := local.Stats(), sharded.Stats()
	// The zipf skew repeats requests, so both layers must be absorbing the
	// duplicates — via the result cache or via in-flight sharing when the
	// duplicates arrive concurrently.
	if lst.ResultHits+lst.FlightShared == 0 || sst.ResultHits+sst.FlightShared == 0 {
		t.Fatalf("duplicate requests not absorbed under a zipf mix: local %+v, sharded %+v", lst, sst)
	}
	if sst.SubHits != 0 || sst.SubEntries != 0 {
		t.Fatalf("sub-search cache active over a partition: %+v", sst)
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
