package serve

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"semkg/internal/core"
	"semkg/internal/query"
	"semkg/internal/shard"
)

// distTestEngine serves the motivating-example graph through two
// in-process httptest shard servers behind a distributed coordinator —
// the serving layer cannot tell it apart from a local engine, which is
// exactly the property this file tests.
func distTestEngine(t *testing.T) *core.Engine {
	t.Helper()
	e := testEngine(t)
	set, err := shard.Partition(e.Graph(), shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([][]string, set.Len())
	for i := 0; i < set.Len(); i++ {
		srv, err := shard.NewServer(set.Shard(i))
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		hosts[i] = []string{hs.URL}
	}
	de, err := core.NewDistEngine(e, hosts, core.DistConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return de
}

// TestServingOverDistEngine: the serving layer works unchanged over the
// HTTP coordinator — cold answers match single-engine serving, and the
// warm result-cache hit is byte-identical.
func TestServingOverDistEngine(t *testing.T) {
	ctx := context.Background()
	single := New(testEngine(t), Config{})
	dist := New(distTestEngine(t), Config{})

	want, err := single.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := dist.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(answersJSON(t, cold), answersJSON(t, want)) {
		t.Fatalf("distributed serving answers differ from single-engine serving:\n%s\n%s",
			answersJSON(t, cold), answersJSON(t, want))
	}
	warm, err := dist.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireJSON(t, cold), wireJSON(t, warm)) {
		t.Fatal("warm cache hit not byte-identical over the coordinator")
	}
	st := dist.Stats()
	if st.ResultHits != 1 || st.PipelineRuns != 1 {
		t.Fatalf("stats = %+v, want 1 result hit and 1 pipeline run", st)
	}
}

// TestServingDistStreamReplay: a distributed execution streams live under
// the same delivery guarantees as a local one, and a result-cache hit
// replays its result as one ResultEvent.
func TestServingDistStreamReplay(t *testing.T) {
	ctx := context.Background()
	srv := New(distTestEngine(t), Config{})
	live, err := srv.Stream(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	liveEvents, res := drainStream(t, live)
	checkLive(t, "distributed live", liveEvents, res)
	replay, err := srv.Stream(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkSettled(t, "distributed cache hit", replay, res)
	if got := srv.Stats().ResultHits; got != 1 {
		t.Fatalf("ResultHits = %d, want 1", got)
	}
}

// TestDistServedMixParity extends the zipf served-mix property to the
// distributed path: a skewed mix of overlapping requests produces
// byte-identical answers whether the backing engine is the local engine
// or the HTTP coordinator, under concurrency, with result caching live
// on both. The sub-search sharing layer stays out of the distributed
// path by design (it shares raw base-engine enumerations), which must
// not change any answer.
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
	dist := New(distTestEngine(t), Config{Queue: 128})

	type out struct {
		local, dist []byte
		err         error
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
			dres, err := dist.Search(context.Background(), r.q, r.opts)
			if err != nil {
				results[i].err = err
				return
			}
			results[i].local = answersJSON(t, lres)
			results[i].dist = answersJSON(t, dres)
		}(i, r)
	}
	wg.Wait()

	for i, o := range results {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if !bytes.Equal(o.local, o.dist) {
			t.Errorf("request %d (K=%d tau=%g): distributed answers differ from local:\n%s\nvs\n%s",
				i, reqs[i].opts.K, reqs[i].opts.Tau, o.dist, o.local)
		}
	}

	lst, dst := local.Stats(), dist.Stats()
	// The zipf skew repeats requests, so both layers must be absorbing the
	// duplicates — via the result cache or via in-flight sharing when the
	// duplicates arrive concurrently.
	if lst.ResultHits+lst.FlightShared == 0 || dst.ResultHits+dst.FlightShared == 0 {
		t.Fatalf("duplicate requests not absorbed under a zipf mix: local %+v, dist %+v", lst, dst)
	}
	// Sub-search sharing is a base-engine optimization; the distributed
	// path must bypass it (its remote streams are not shareable raw
	// enumerations), not crash into it.
	if dst.SubHits != 0 || dst.SubEntries != 0 {
		t.Fatalf("sub-search cache active over the coordinator: %+v", dst)
	}
}

// TestDistAdmissionSheds: the admission layer 429s identically over the
// coordinator — one worker, no queue, second request shed with a
// Retry-After hint while the first holds the worker.
func TestDistAdmissionSheds(t *testing.T) {
	release := make(chan struct{})
	srv := New(distTestEngine(t), Config{Workers: 1, Queue: -1, BeforeRun: func() { <-release }})
	ctx := context.Background()

	done := make(chan error, 1)
	go func() {
		_, err := srv.Search(ctx, q117(), testOpts())
		done <- err
	}()
	waitBusy(t, srv, 1)

	_, err := srv.Search(ctx, clubQuery(), testOpts())
	var over *OverloadedError
	if !errors.As(err, &over) {
		t.Fatalf("err = %v, want OverloadedError", err)
	}
	if over.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", over.RetryAfter)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().RejectedQueue; got != 1 {
		t.Fatalf("RejectedQueue = %d, want 1", got)
	}
}

// TestDistServeShardFailure: a shard dying under the serving layer
// surfaces as the typed error (never cached), and recovery is
// immediate once a healthy deployment replaces it — the error was not
// poisoned into the result cache.
func TestDistServeShardFailure(t *testing.T) {
	ctx := context.Background()
	e := testEngine(t)
	set, err := shard.Partition(e.Graph(), shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*httptest.Server, 2)
	hosts := make([][]string, 2)
	for i := 0; i < 2; i++ {
		ss, err := shard.NewServer(set.Shard(i))
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = httptest.NewServer(ss.Handler())
		t.Cleanup(servers[i].Close)
		hosts[i] = []string{servers[i].URL}
	}
	de, err := core.NewDistEngine(e, hosts, core.DistConfig{Retries: 1, RetryBackoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(de, Config{})

	servers[1].CloseClientConnections()
	servers[1].Close()
	_, err = srv.Search(ctx, q117(), testOpts())
	var unavail *core.ShardUnavailableError
	if !errors.As(err, &unavail) {
		t.Fatalf("err = %v (%T), want *ShardUnavailableError", err, err)
	}
	if st := srv.Stats(); st.ResultEntries != 0 {
		t.Fatalf("failed search cached: %+v", st)
	}

	// The same query must also fail over the streaming path with the
	// error terminal, not a hang or an empty success.
	stream, err := srv.Stream(ctx, q117(), testOpts())
	if err == nil {
		for range stream.Events() {
		}
		_, err = stream.Result()
	}
	if !errors.As(err, &unavail) {
		t.Fatalf("stream err = %v, want *ShardUnavailableError", err)
	}
}
