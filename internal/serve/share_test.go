package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semkg/internal/core"
	"semkg/internal/datagen"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/query"
)

// manufacturerQuery overlaps q117 in shape but swaps the predicate, so
// its sub-query blueprint differs while its φ sets coincide.
func manufacturerQuery() *query.Graph {
	return &query.Graph{
		Nodes: []query.Node{
			{ID: "v1", Type: "Automobile"},
			{ID: "v2", Name: "Germany", Type: "Country"},
		},
		Edges: []query.Edge{{From: "v1", To: "v2", Predicate: "manufacturer"}},
	}
}

// TestShareProperty is the headline equivalence property: a random mix
// of overlapping requests — shared shapes under varied runtime K, plus
// distinct queries — served concurrently through the sharing layer is
// field-identical (answers, scores, order) to each request run solo on
// an identical unshared engine, and the repeated requests are absorbed
// by the result cache or in-flight sharing. Run under -race this also
// exercises the concurrent create/join paths of the sub-search cache.
func TestShareProperty(t *testing.T) {
	queries := []func() *query.Graph{q117, clubQuery, manufacturerQuery}
	ks := []int{1, 2, 3, 10}
	taus := []float64{0.6, 0.75}

	rng := rand.New(rand.NewSource(117))
	type request struct {
		q    *query.Graph
		opts core.Options
	}
	const n = 60
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{
			q:    queries[rng.Intn(len(queries))](),
			opts: core.Options{K: ks[rng.Intn(len(ks))], Tau: taus[rng.Intn(len(taus))]},
		}
	}

	// Solo reference: every request on its own engine-level run, no
	// serving layer, no sharing.
	solo := testEngine(t)
	want := make([][]byte, n)
	for i, r := range reqs {
		res, err := solo.Search(context.Background(), r.q, r.opts)
		if err != nil {
			t.Fatalf("solo %d: %v", i, err)
		}
		want[i] = answersJSON(t, res)
	}

	srv := New(testEngine(t), Config{Queue: 128})
	var wg sync.WaitGroup
	got := make([][]byte, n)
	errs := make([]error, n)
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r request) {
			defer wg.Done()
			res, err := srv.Search(context.Background(), r.q, r.opts)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = answersJSON(t, res)
		}(i, r)
	}
	wg.Wait()

	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("served %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("request %d (K=%d tau=%g): shared answers differ from solo:\n%s\nvs\n%s",
				i, reqs[i].opts.K, reqs[i].opts.Tau, got[i], want[i])
		}
	}

	st := srv.Stats()
	if st.SubHits == 0 {
		t.Fatalf("no shared sub-search hits across %d overlapping requests: %+v", n, st)
	}
	if st.SubMisses == 0 || st.SubEntries == 0 {
		t.Fatalf("sub-search cache never populated: %+v", st)
	}
	// 60 requests over 24 distinct (query, K, τ) triples repeat some, so
	// the layer must absorb the duplicates — via the result cache, or via
	// in-flight sharing when they arrive concurrently.
	if st.ResultHits+st.FlightShared == 0 {
		t.Fatalf("duplicate requests not absorbed: %+v", st)
	}
}

// TestShareDisabled: SubCache < 0 switches sharing off — answers stay
// identical, and the sub counters stay zero.
func TestShareDisabled(t *testing.T) {
	srv := New(testEngine(t), Config{SubCache: -1})
	ctx := context.Background()
	for _, k := range []int{3, 5} {
		opts := testOpts()
		opts.K = k
		if _, err := srv.Search(ctx, q117(), opts); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.SubHits != 0 || st.SubMisses != 0 || st.SubEntries != 0 {
		t.Fatalf("sharing active despite SubCache<0: %+v", st)
	}
}

// TestShareTimeBounded: a wall-clock time-bounded request after an exact
// one of the same shape joins its shared sub-searches, and answers as the
// exact run did, unflagged.
func TestShareTimeBounded(t *testing.T) {
	srv := New(testEngine(t), Config{})
	ctx := context.Background()
	exact, err := srv.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Stats()
	bounded := testOpts()
	bounded.TimeBound = time.Minute
	res, err := srv.Search(ctx, q117(), bounded)
	if err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if after.SubHits <= before.SubHits || after.PipelineRuns != before.PipelineRuns+1 {
		t.Fatalf("time-bounded run did not join the shared sub-searches: before %+v, after %+v", before, after)
	}
	if res.Approximate || !bytes.Equal(answersJSON(t, res), answersJSON(t, exact)) {
		t.Fatalf("time-bounded answers (approximate %v) differ from the exact run:\n%s\nvs\n%s",
			res.Approximate, answersJSON(t, res), answersJSON(t, exact))
	}
}

// BenchmarkServeSearchMiss replays never-repeating single-edge requests
// on a 100k-node large world, the request shape of the http-pipeline
// benchmark workload: datagen.LargeQueries (12 focus types, hub-band
// anchors, the 8 most frequent predicates), K 10, τ 0.55, n̂ 2, every
// other request bounded at 100 ms, 500 warm-up requests. τ steps by 1e-9
// each time the 3,072 queries wrap, so no request repeats and every cache
// misses. "sub-cache off" is the private path; "default" shares each
// sub-search through the sub-cache, as semkgd does unless told otherwise.
func BenchmarkServeSearchMiss(b *testing.B) {
	p := datagen.LargeWorld(100_000)
	g := datagen.GenerateLarge(p)
	space, err := (&embed.Model{Cfg: embed.Config{Dim: 32}}).SpaceFor(g)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(g, space, nil)
	if err != nil {
		b.Fatal(err)
	}
	queries := datagen.LargeQueries(g, p, 3072)
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"sub-cache off", Config{SubCache: -1}}, {"default", Config{}}} {
		b.Run(c.name, func(b *testing.B) {
			srv := New(eng, c.cfg)
			ctx := context.Background()
			search := func(i int) {
				opts := core.Options{K: 10, Tau: 0.55 + 1e-9*float64(i/len(queries)), MaxHops: 2}
				if i%2 == 1 {
					opts.TimeBound = 100 * time.Millisecond
				}
				if _, err := srv.Search(ctx, queries[i%len(queries)], opts); err != nil {
					b.Fatal(err)
				}
			}
			const warm = 500
			for i := 0; i < warm; i++ {
				search(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				search(warm + i)
			}
		})
	}
}

// TestShareFlightCancellation is the satellite audit: two flights share
// sub-query enumerations (same plan, different K → different result
// keys, one sub-search). One participant leaving early cancels only its
// own flight — the survivor completes with correct answers, and the
// shared enumeration remains usable for later requests.
func TestShareFlightCancellation(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	srv := New(testEngine(t), Config{
		Workers: 4,
		BeforeRun: func() {
			started <- struct{}{}
			<-release
		},
	})

	optsA := testOpts()
	optsA.K = 3
	optsB := testOpts()
	optsB.K = 5

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	var errA error
	var doneA sync.WaitGroup
	doneA.Add(1)
	go func() {
		defer doneA.Done()
		_, errA = srv.Search(ctxA, q117(), optsA)
	}()

	resBCh := make(chan *core.Result, 1)
	errBCh := make(chan error, 1)
	go func() {
		res, err := srv.Search(context.Background(), q117(), optsB)
		resBCh <- res
		errBCh <- err
	}()

	// Both flights admitted and gated before either pipeline pulls a
	// match; now abandon A and let both proceed.
	<-started
	<-started
	cancelA()
	doneA.Wait()
	close(release)

	if errA == nil {
		t.Fatal("cancelled participant returned no error")
	}
	resB := <-resBCh
	if err := <-errBCh; err != nil {
		t.Fatalf("surviving flight failed: %v", err)
	}

	want, err := testEngine(t).Search(context.Background(), q117(), optsB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(answersJSON(t, resB), answersJSON(t, want)) {
		t.Fatalf("survivor answers differ after peer cancellation:\n%s\nvs\n%s",
			answersJSON(t, resB), answersJSON(t, want))
	}

	// The shared enumeration outlived the leaver: a third K re-joins it.
	before := srv.Stats()
	optsC := testOpts()
	optsC.K = 7
	resC, err := srv.Search(context.Background(), q117(), optsC)
	if err != nil {
		t.Fatal(err)
	}
	wantC, err := testEngine(t).Search(context.Background(), q117(), optsC)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(answersJSON(t, resC), answersJSON(t, wantC)) {
		t.Fatal("post-cancellation request served wrong answers from the shared entry")
	}
	after := srv.Stats()
	if after.SubHits <= before.SubHits {
		t.Fatalf("post-cancellation request did not join the shared sub-search: %+v", after)
	}
	if after.SubEntries != before.SubEntries {
		t.Fatalf("cancellation disturbed the sub cache: %d entries, was %d",
			after.SubEntries, before.SubEntries)
	}
}

// TestApplyInvalidatesSubCacheExactlyOnce mirrors the PR-4 result-cache
// regression at the sub-search level: after Apply publishes a new
// generation, a repeated batch misses the sub cache exactly once (one
// fresh enumeration per blueprint), then re-warms.
func TestApplyInvalidatesSubCacheExactlyOnce(t *testing.T) {
	srv := New(testEngine(t), Config{Build: testBuild()})
	ctx := context.Background()

	// Two Ks per shape: the second pipeline run joins the first's
	// enumeration.
	batch := []BatchItem{
		{Query: q117(), Opts: core.Options{K: 3, Tau: 0.75}},
		{Query: q117(), Opts: core.Options{K: 5, Tau: 0.75}},
	}
	for _, out := range srv.SearchBatch(ctx, batch) {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	st := srv.Stats()
	if st.SubMisses != 1 || st.SubHits != 1 {
		t.Fatalf("warmup: sub misses=%d hits=%d, want 1/1", st.SubMisses, st.SubHits)
	}

	d := srv.NewDelta()
	if err := d.ApplyTriple("VW_Golf", kg.TypePredicate, "Automobile"); err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyTriple("VW_Golf", "assembly", "Germany"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Apply(d); err != nil {
		t.Fatal(err)
	}

	// First batch after the swap: exactly one fresh miss (the blueprint
	// re-enumerates on the new engine), the sibling K joins it.
	for _, out := range srv.SearchBatch(ctx, batch) {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	st = srv.Stats()
	if st.SubMisses != 2 || st.SubHits != 2 {
		t.Fatalf("post-apply first batch: sub misses=%d hits=%d, want 2/2", st.SubMisses, st.SubHits)
	}

	// Repeat: results now come from the result cache — no new pipeline
	// runs, no new sub traffic.
	runs := st.PipelineRuns
	for _, out := range srv.SearchBatch(ctx, batch) {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	st = srv.Stats()
	if st.PipelineRuns != runs || st.SubMisses != 2 {
		t.Fatalf("post-apply second batch re-ran: %+v", st)
	}

	// The new generation's answers include the ingested entity.
	res, err := srv.Search(ctx, q117(), core.Options{K: 10, Tau: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(res.Entities(), "VW_Golf") {
		t.Fatalf("stale sub-results served after Apply: %v", res.Entities())
	}
}

// TestSearchBatchOutcomes: positional attribution — an invalid item
// reports its own error without failing its neighbours, and good items
// match solo execution.
func TestSearchBatchOutcomes(t *testing.T) {
	srv := New(testEngine(t), Config{})
	ctx := context.Background()

	bad := &query.Graph{Nodes: []query.Node{{ID: "v1"}}}
	out := srv.SearchBatch(ctx, []BatchItem{
		{Query: q117(), Opts: testOpts()},
		{Query: bad, Opts: testOpts()},
		{Query: clubQuery(), Opts: testOpts()},
	})
	if len(out) != 3 {
		t.Fatalf("got %d outcomes, want 3", len(out))
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("good items failed: %v / %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil {
		t.Fatal("invalid item reported no error")
	}
	var br core.BadRequestError
	if !errors.As(out[1].Err, &br) {
		t.Fatalf("invalid item error = %v, want BadRequestError", out[1].Err)
	}

	want, err := testEngine(t).Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(answersJSON(t, out[0].Result), answersJSON(t, want)) {
		t.Fatal("batch item answers differ from solo execution")
	}

	if srv.SearchBatch(ctx, nil) == nil {
		t.Fatal("empty batch returned nil instead of an empty slice")
	}
}

// TestSearchBatchConcurrentWithApply interleaves batches with live
// ingestion under the race detector: every outcome is either a valid
// result for the generation it ran on or a context/propagated error —
// never a stale sub-result (answer counts are non-decreasing, since
// generations here only add entities).
func TestSearchBatchConcurrentWithApply(t *testing.T) {
	srv := New(testEngine(t), Config{Build: testBuild(), Queue: 64})
	ctx := context.Background()
	const (
		clients = 3
		rounds  = 15
		applies = 6
	)

	batch := func() []BatchItem {
		return []BatchItem{
			{Query: q117(), Opts: core.Options{K: 3, Tau: 0.75}},
			{Query: q117(), Opts: core.Options{K: 25, Tau: 0.75}},
			{Query: clubQuery(), Opts: core.Options{K: 25, Tau: 0.75}},
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, clients)
	var applied atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := -1
			for i := 0; i < rounds; i++ {
				out := srv.SearchBatch(ctx, batch())
				for j, o := range out {
					if o.Err != nil {
						errs[c] = fmt.Errorf("round %d item %d: %w", i, j, o.Err)
						return
					}
				}
				// Item 1 (K=25 over q117) sees every entity of its
				// generation: the count can only grow.
				if n := len(out[1].Result.Answers); n < prev {
					errs[c] = fmt.Errorf("round %d: answers went from %d to %d", i, prev, n)
					return
				} else {
					prev = n
				}
			}
		}(c)
	}

	for a := 0; a < applies; a++ {
		d := srv.NewDelta()
		if err := d.ApplyTriple(fmt.Sprintf("BatchAuto_%d", a), kg.TypePredicate, "Automobile"); err != nil {
			t.Fatal(err)
		}
		if err := d.ApplyTriple(fmt.Sprintf("BatchAuto_%d", a), "assembly", "Germany"); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Apply(d); err != nil {
			t.Fatal(err)
		}
		applied.Add(1)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	// Final state: the last generation answers with every ingested auto.
	out := srv.SearchBatch(ctx, []BatchItem{{Query: q117(), Opts: core.Options{K: 40, Tau: 0.75}}})
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	for a := 0; a < applies; a++ {
		if !slices.Contains(out[0].Result.Entities(), fmt.Sprintf("BatchAuto_%d", a)) {
			t.Fatalf("BatchAuto_%d missing after interleaved batches: %v", a, out[0].Result.Entities())
		}
	}
}
