package core

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"semkg/internal/datagen"
	"semkg/internal/query"
	"semkg/internal/shard"
	"semkg/internal/tbq"
)

// shardedOver derives an engine scattering over a partition of e's graph.
func shardedOver(t *testing.T, e *Engine, shards int) *Engine {
	t.Helper()
	se, err := NewShardedEngine(e, shard.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return se
}

// shardedWorkload picks a query cross-section biased towards the
// multi-sub-query shapes sharding exists for.
func shardedWorkload(ds *datagen.Dataset) []datagen.GenQuery {
	var qs []datagen.GenQuery
	if len(ds.Simple) > 2 {
		qs = append(qs, ds.Simple[:2]...)
	} else {
		qs = append(qs, ds.Simple...)
	}
	qs = append(qs, ds.Medium...)
	qs = append(qs, ds.Complex...)
	if len(qs) > 7 {
		qs = qs[:7]
	}
	return qs
}

// scoreEpsilon absorbs the float-addition reordering of candidate score
// sums: the per-part PSS values are bit-identical between engines, but TA
// may first see a pivot's streams in a different relative order, and
// three-term float sums are not associative.
const scoreEpsilon = 1e-9

// assertTopKEquivalent verifies got (sharded) is a correct top-k whenever
// want (single-engine) is: identical score vector, and identical answer
// entities everywhere the ranking is unambiguous — entities whose score
// ties the k-th score may legally differ between two correct top-k sets,
// so the tie group at the boundary is compared by size only.
func assertTopKEquivalent(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("%s: %d answers, want %d", name, len(got.Answers), len(want.Answers))
	}
	if len(want.Answers) == 0 {
		return
	}
	for i := range want.Answers {
		if math.Abs(got.Answers[i].Score-want.Answers[i].Score) > scoreEpsilon {
			t.Fatalf("%s: rank %d score %v, want %v", name, i, got.Answers[i].Score, want.Answers[i].Score)
		}
	}
	kth := want.Answers[len(want.Answers)-1].Score
	wantAbove := make(map[string]bool)
	gotAbove := make(map[string]bool)
	for i := range want.Answers {
		if want.Answers[i].Score > kth+scoreEpsilon {
			wantAbove[want.Answers[i].PivotName] = true
		}
		if got.Answers[i].Score > kth+scoreEpsilon {
			gotAbove[got.Answers[i].PivotName] = true
		}
	}
	if len(gotAbove) != len(wantAbove) {
		t.Fatalf("%s: %d unambiguous answers, want %d", name, len(gotAbove), len(wantAbove))
	}
	for p := range wantAbove {
		if !gotAbove[p] {
			t.Fatalf("%s: unambiguous answer %q missing from sharded result", name, p)
		}
	}
	if got.Decomposition.Pivot != want.Decomposition.Pivot {
		t.Fatalf("%s: pivot %q vs %q", name, got.Decomposition.Pivot, want.Decomposition.Pivot)
	}
}

// TestShardedSearchEquivalenceSGQ is the tentpole acceptance property:
// for generated worlds and 1/2/3/4 shards, the sharded exact search
// returns the same top-k set and scores as the single engine, on every
// workload shape (single- and multi-sub-query).
func TestShardedSearchEquivalenceSGQ(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{3, 17, 42} {
		ds, e := tinyWorld(t, seed)
		engines := map[int]*Engine{}
		for _, n := range []int{1, 2, 3, 4} {
			engines[n] = shardedOver(t, e, n)
		}
		for _, q := range shardedWorkload(ds) {
			for _, k := range []int{1, 5, 10} {
				opts := Options{K: k, Tau: 0.5, MaxHops: 3}
				want, err := e.Search(ctx, q.Graph, opts)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, q.Name, err)
				}
				oracleCheck(t, q.Name+"/single", e, ds.Library, q.Graph, opts, want)
				for n, se := range engines {
					got, err := se.Search(ctx, q.Graph, opts)
					if err != nil {
						t.Fatalf("seed %d %s shards=%d: %v", seed, q.Name, n, err)
					}
					assertTopKEquivalent(t, q.Name, got, want)
				}
			}
		}
	}
}

// TestShardedStreamMatchesSearch: the sharded pipeline is deterministic,
// so consuming a sharded Stream to completion yields a Result identical
// to sharded Search — and the event stream obeys the single-engine
// ordering guarantees, with per-shard progress attribution.
func TestShardedStreamMatchesSearch(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 17)
	se := shardedOver(t, e, 3)
	for _, q := range shardedWorkload(ds)[:4] {
		opts := Options{K: 5, Tau: 0.5, MaxHops: 3}
		want, err := se.Search(ctx, q.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := se.Stream(ctx, q.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		events, res := drainStream(t, st)
		assertResultsEqual(t, q.Name+"/sharded-stream", res, want)

		sawShard := false
		for _, ev := range events {
			if pe, ok := ev.(ProgressEvent); ok {
				if pe.Shard < 1 || pe.Shard > 3 {
					t.Fatalf("%s: progress event shard %d outside [1,3]", q.Name, pe.Shard)
				}
				sawShard = true
			}
		}
		if len(want.Answers) > 0 && !sawShard {
			t.Fatalf("%s: no per-shard progress events", q.Name)
		}
		last := events[len(events)-1]
		if _, ok := last.(ResultEvent); !ok {
			t.Fatalf("%s: last event %T, want ResultEvent", q.Name, last)
		}
	}
}

// TestShardedTBQExhaustedEquivalence: with an ample deterministic budget
// the deadline never cuts, so the time-bounded sharded search is the exact
// sharded search — the single engine's answers and scores (a tie at the
// k-th rank may fill either way), unflagged, with one delivered-match
// count per sub-query.
func TestShardedTBQExhaustedEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{8, 21} {
		ds, e := tinyWorld(t, seed)
		se := shardedOver(t, e, 4)
		for _, q := range shardedWorkload(ds)[:5] {
			opts := Options{
				K: 5, Tau: 0.5, MaxHops: 3,
				TimeBound: time.Hour,
				Clock:     &tbq.StepClock{Step: time.Microsecond},
			}
			want, err := e.Search(ctx, q.Graph, opts)
			if err != nil {
				t.Fatal(err)
			}
			optsSharded := opts
			optsSharded.Clock = &tbq.StepClock{Step: time.Microsecond}
			got, err := se.Search(ctx, q.Graph, optsSharded)
			if err != nil {
				t.Fatal(err)
			}
			if want.Approximate || got.Approximate {
				t.Fatalf("%s: ample budget was cut (single %v, sharded %v)",
					q.Name, want.Approximate, got.Approximate)
			}
			assertTopKEquivalent(t, q.Name, got, want)
			if len(got.Collected) != len(want.Decomposition.Subs) {
				t.Fatalf("%s: collected %v for %d sub-queries", q.Name, got.Collected, len(want.Decomposition.Subs))
			}
		}
	}
}

// TestShardedTBQRespectsBound: a tight wall-clock budget terminates the
// sharded search promptly and flags the result approximate (or returns
// the exhausted exact result even faster). The generous multiplier only
// absorbs scheduler noise — the contract under test is that a 25ms bound
// cannot produce a multi-second search.
func TestShardedTBQRespectsBound(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 42)
	se := shardedOver(t, e, 3)
	q := ds.Complex[0]
	const bound = 25 * time.Millisecond
	start := time.Now()
	res, err := se.Search(ctx, q.Graph, Options{K: 5, Tau: 0.4, MaxHops: 4, TimeBound: bound})
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 20*bound {
		t.Fatalf("sharded TBQ took %v against a %v bound", wall, bound)
	}
	if res == nil {
		t.Fatal("nil result")
	}
}

// TestShardedHaloFallback: MaxHops beyond the partition halo cannot be
// served from the shard graphs; the engine transparently runs the base
// pipeline, whose result is identical to the single engine's by
// construction.
func TestShardedHaloFallback(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 3)
	se, err := NewShardedEngine(e, shard.Options{Shards: 2, Halo: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Simple[0]
	opts := Options{K: 5, Tau: 0.5, MaxHops: 3} // 3 > halo 2
	want, err := e.Search(ctx, q.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := se.Search(ctx, q.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "halo-fallback", got, want)
	if st := se.Deployment().Sharded; st.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", st.Fallbacks)
	}

	// Within the halo the sharded path runs and counts.
	if _, err := se.Search(ctx, q.Graph, Options{K: 5, Tau: 0.5, MaxHops: 2}); err != nil {
		t.Fatal(err)
	}
	if st := se.Deployment().Sharded; st.Searches != 1 || st.Fallbacks != 1 {
		t.Fatalf("stats = %+v, want 1 sharded search and 1 fallback", st)
	}
}

// TestShardedMismatchQuery: a query node matching nothing yields the empty
// answer set through the sharded path too, not an error.
func TestShardedMismatchQuery(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 3)
	se := shardedOver(t, e, 2)
	q := ds.Simple[0].Graph
	bad := *q
	bad.Nodes = append([]query.Node{}, q.Nodes...)
	for i := range bad.Nodes {
		if bad.Nodes[i].Name != "" {
			bad.Nodes[i].Name = "NoSuchEntityAnywhere_ZZZ"
		}
	}
	res, err := se.Search(ctx, &bad, Options{K: 5, Tau: 0.5, MaxHops: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Fatalf("mismatch query returned %d answers", len(res.Answers))
	}
}

// TestShardedPlanReuse: one plan compiled on a sharded engine serves
// repeated runs, each projecting it into the partition afresh, and plans
// do not cross engines.
func TestShardedPlanReuse(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 17)
	se := shardedOver(t, e, 3)
	q := ds.Medium[0].Graph
	opts := Options{K: 5, Tau: 0.5, MaxHops: 3}
	p, err := se.Compile(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertForeignPlan(t, e, p)
	want, err := se.Search(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := se.SearchPlan(ctx, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, "plan-reuse", got, want)
	}
	// A single-engine plan is rejected by the sharded engine, and vice
	// versa.
	bp, err := e.Compile(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.SearchPlan(ctx, bp, opts); err == nil {
		t.Fatal("sharded engine ran a single-engine plan")
	}
	if _, err := e.SearchPlan(ctx, p, opts); err == nil {
		t.Fatal("single engine ran a sharded plan")
	}
	// Mismatched compile options are rejected, as in the single engine.
	if _, err := se.SearchPlan(ctx, p, Options{K: 5, Tau: 0.6, MaxHops: 3}); err == nil {
		t.Fatal("plan accepted under different compile options")
	}
}

// TestShardedCancellationMidMerge: cancelling the context while the
// assembly is pulling from shard streams terminates with the provisional
// best (anytime semantics), still delivering a terminal ResultEvent.
func TestShardedCancellationMidMerge(t *testing.T) {
	ds, e := tinyWorld(t, 42)
	se := shardedOver(t, e, 3)
	ctx, cancel := context.WithCancel(context.Background())
	st, err := se.Stream(ctx, ds.Complex[0].Graph, Options{K: 10, Tau: 0.4, MaxHops: 3})
	if err != nil {
		t.Fatal(err)
	}
	cancel() // shard streams run dry at their next lazy pull
	events, res := drainStream(t, st)
	if res == nil {
		t.Fatal("no terminal result after cancellation")
	}
	if len(events) == 0 {
		t.Fatal("no events after cancellation")
	}
	if _, ok := events[len(events)-1].(ResultEvent); !ok {
		t.Fatalf("last event %T, want ResultEvent", events[len(events)-1])
	}
}

// TestShardedEngineFromLoadedSet: shards saved and loaded individually
// through the snapshot wrapper reassemble into an engine answering
// identically to the freshly partitioned one.
func TestShardedEngineFromLoadedSet(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 21)
	se := shardedOver(t, e, 3)
	orig, err := shard.Partition(e.Graph(), shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}

	var loaded []*shard.Shard
	for i := 0; i < orig.Len(); i++ {
		var buf bytes.Buffer
		if err := shard.WriteShard(&buf, orig.Shard(i)); err != nil {
			t.Fatal(err)
		}
		sh, err := shard.ReadShard(&buf)
		if err != nil {
			t.Fatal(err)
		}
		loaded = append(loaded, sh)
	}
	set, err := shard.Assemble(e.Graph(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	se2, err := NewShardedEngineFromSet(e, set)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range shardedWorkload(ds)[:3] {
		opts := Options{K: 5, Tau: 0.5, MaxHops: 3}
		want, err := se.Search(ctx, q.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := se2.Search(ctx, q.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, q.Name+"/loaded-set", got, want)
	}
}

// TestShardedStats sanity-checks the monitoring surface.
func TestShardedStats(t *testing.T) {
	_, e := tinyWorld(t, 3)
	se := shardedOver(t, e, 4)
	st := se.Deployment().Sharded
	if st.Shards != 4 || st.Halo != shard.DefaultHalo {
		t.Fatalf("stats shape = %+v", st)
	}
	if st.ReplicationFactor < 1 {
		t.Fatalf("replication factor %v < 1", st.ReplicationFactor)
	}
	if len(st.PerShard) != 4 {
		t.Fatalf("per-shard stats %d, want 4", len(st.PerShard))
	}
	owned := 0
	for _, s := range st.PerShard {
		owned += s.Owned
	}
	if owned != e.Graph().NumNodes() {
		t.Fatalf("owned sum %d, want %d", owned, e.Graph().NumNodes())
	}
}

// TestShardedEngineValidation covers the constructor contracts.
func TestShardedEngineValidation(t *testing.T) {
	_, e := tinyWorld(t, 3)
	if _, err := NewShardedEngine(nil, shard.Options{}); err == nil {
		t.Fatal("nil base accepted")
	}
	_, other := tinyWorld(t, 17)
	set, err := shard.Partition(other.Graph(), shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedEngineFromSet(e, set); err == nil {
		t.Fatal("set over a different graph accepted")
	}
}
