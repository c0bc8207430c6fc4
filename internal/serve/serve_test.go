package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"semkg/internal/api"
	"semkg/internal/core"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/tbq"
)

// testEngine builds a small motivating-example engine with hand-crafted
// predicate vectors (no training): cars related to Germany through three
// schemas, plus French distractors.
func testEngine(t testing.TB) *core.Engine {
	t.Helper()
	return buildEngine(t, true, 0)
}

// buildEngine optionally drops one schema so Rebuild tests can observe a
// changed graph through the cache, and adds pad isolated Automobile nodes,
// which grow φ(?Automobile) without changing any search.
func buildEngine(t testing.TB, withX6 bool, pad int) *core.Engine {
	t.Helper()
	b := kg.NewBuilder(32+pad, 64)
	ger := b.AddNode("Germany", "Country")
	france := b.AddNode("France", "Country")
	munich := b.AddNode("Munich", "City")
	co := b.AddNode("BMW_Co", "Company")
	b.AddEdge(munich, ger, "country")
	b.AddEdge(co, ger, "locationCountry")
	for _, name := range []string{"BMW_320", "Audi_TT"} {
		b.AddEdge(b.AddNode(name, "Automobile"), ger, "assembly")
	}
	b.AddEdge(b.AddNode("BMW_Z4", "Automobile"), munich, "assembly")
	if withX6 {
		b.AddEdge(b.AddNode("BMW_X6", "Automobile"), co, "manufacturer")
	} else {
		b.AddEdge(b.AddNode("BMW_X6", "Automobile"), france, "assembly")
	}
	b.AddEdge(b.AddNode("Clio", "Automobile"), france, "assembly")
	for i := 0; i < pad; i++ {
		b.AddNode(fmt.Sprintf("Pad_%d", i), "Automobile")
	}
	g := b.Build()

	vecs := map[string]embed.Vector{
		"assembly":        {1.00, 0.05, 0.02},
		"manufacturer":    {0.95, 0.20, 0.05},
		"country":         {0.90, 0.10, 0.30},
		"locationCountry": {0.90, 0.12, 0.28},
	}
	names := g.Predicates()
	ordered := make([]embed.Vector, len(names))
	for i, n := range names {
		v, ok := vecs[n]
		if !ok {
			t.Fatalf("no vector for predicate %q", n)
		}
		ordered[i] = v
	}
	sp, err := embed.NewSpace(names, ordered)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(g, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func q117() *query.Graph {
	return &query.Graph{
		Nodes: []query.Node{
			{ID: "v1", Type: "Automobile"},
			{ID: "v2", Name: "Germany", Type: "Country"},
		},
		Edges: []query.Edge{{From: "v1", To: "v2", Predicate: "assembly"}},
	}
}

func clubQuery() *query.Graph {
	return &query.Graph{
		Nodes: []query.Node{
			{ID: "v1", Type: "Automobile"},
			{ID: "v2", Name: "France", Type: "Country"},
		},
		Edges: []query.Edge{{From: "v1", To: "v2", Predicate: "assembly"}},
	}
}

func testOpts() core.Options { return core.Options{K: 10, Tau: 0.75} }

// wireJSON renders a result in its wire form for byte-level comparison.
func wireJSON(t *testing.T, res *core.Result) []byte {
	t.Helper()
	b, err := json.Marshal(api.ResultFrom(res))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// answersJSON renders only the answers (excluding timings) for comparison
// across independent executions.
func answersJSON(t *testing.T, res *core.Result) []byte {
	t.Helper()
	b, err := json.Marshal(api.AnswersFrom(res.Answers))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestColdCachedByteIdentical is half of the acceptance criterion: the
// cold pipeline run and the warm cache hit return byte-identical wire
// results, and both match the answers of an unwrapped core.Engine.Search.
func TestColdCachedByteIdentical(t *testing.T) {
	eng := testEngine(t)
	srv := New(eng, Config{})
	ctx := context.Background()

	direct, err := eng.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := srv.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	cached, err := srv.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireJSON(t, cold), wireJSON(t, cached)) {
		t.Fatal("cached result differs from the cold run")
	}
	if !bytes.Equal(answersJSON(t, direct), answersJSON(t, cold)) {
		t.Fatalf("serving-layer answers differ from core.Engine.Search:\n%s\nvs\n%s",
			answersJSON(t, cold), answersJSON(t, direct))
	}
	st := srv.Stats()
	if st.ResultHits != 1 || st.ResultMisses != 1 || st.PipelineRuns != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 run", st)
	}
}

// TestSingleflightCollapses32 is the acceptance criterion: 32 concurrent
// identical requests run the pipeline exactly once and all return
// byte-identical results. The BeforeRun gate holds the leader inside the
// pipeline until every other request has joined its flight, so the
// collapse is deterministic, not timing-dependent.
func TestSingleflightCollapses32(t *testing.T) {
	const n = 32
	eng := testEngine(t)
	release := make(chan struct{})
	srv := New(eng, Config{BeforeRun: func() { <-release }})
	ctx := context.Background()

	var wg sync.WaitGroup
	results := make([]*core.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = srv.Search(ctx, q117(), testOpts())
		}(i)
	}
	// Wait until the other 31 requests have joined the leader's flight.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().FlightShared < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests joined the flight", srv.Stats().FlightShared, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	want := wireJSON(t, results[0])
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(wireJSON(t, results[i]), want) {
			t.Fatalf("request %d returned a different result", i)
		}
	}
	st := srv.Stats()
	if st.PipelineRuns != 1 {
		t.Fatalf("pipeline ran %d times, want 1", st.PipelineRuns)
	}
	if st.FlightShared != n-1 {
		t.Fatalf("FlightShared = %d, want %d", st.FlightShared, n-1)
	}
}

// drainStream consumes a stream to its end and returns its events and
// terminal result.
func drainStream(t *testing.T, s *Stream) ([]core.Event, *core.Result) {
	t.Helper()
	var events []core.Event
	for ev := range s.Events() {
		events = append(events, ev)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	return events, res
}

// checkLive asserts DESIGN.md's delivery guarantees 1–3 on a live stream:
// pipeline order (search ≤ progress ≤ assemble ≤ topk ≤ result, rounds
// non-decreasing), exactly one ResultEvent, last, carrying the result
// Stream.Result returns, and a closing TopKEvent with the final ranking.
func checkLive(t *testing.T, name string, events []core.Event, res *core.Result) {
	t.Helper()
	if len(events) == 0 {
		t.Fatalf("%s: no events", name)
	}
	if re, ok := events[len(events)-1].(core.ResultEvent); !ok || re.Result != res {
		t.Fatalf("%s: last event %T does not carry Stream.Result()", name, events[len(events)-1])
	}
	const (
		search = iota
		assemble
		topk
	)
	stage, round := -1, 0
	var lastTopK *core.TopKEvent
	for i, ev := range events[:len(events)-1] {
		at := stage
		switch ev := ev.(type) {
		case core.ResultEvent:
			t.Fatalf("%s: ResultEvent at %d of %d", name, i, len(events))
		case core.PhaseEvent:
			switch ev.Phase {
			case core.PhaseSearch:
				at = search
			case core.PhaseAssemble:
				at = assemble
			}
		case core.ProgressEvent:
			if stage > search {
				t.Errorf("%s: progress after the assemble phase", name)
			}
		case core.TopKEvent:
			at = topk
			if ev.Round < round {
				t.Errorf("%s: topk round went backwards (%d after %d)", name, ev.Round, round)
			}
			round, lastTopK = ev.Round, &ev
		}
		if at < stage {
			t.Errorf("%s: event %d (%T) out of pipeline order", name, i, ev)
		}
		stage = at
	}
	if len(res.Answers) > 0 && (lastTopK == nil || !reflect.DeepEqual(lastTopK.Answers, res.Answers)) {
		t.Errorf("%s: no closing topk with the final ranking before the result", name)
	}
}

// checkSettled asserts a settled stream: one ResultEvent carrying want.
func checkSettled(t *testing.T, name string, s *Stream, want *core.Result) {
	t.Helper()
	events, res := drainStream(t, s)
	if len(events) != 1 {
		t.Fatalf("%s: %d events, want one ResultEvent", name, len(events))
	}
	if re, ok := events[0].(core.ResultEvent); !ok || re.Result != want || res != want {
		t.Fatalf("%s: settled stream does not carry the shared result", name)
	}
}

// TestStreamReplayIdentical: the leader's live stream obeys the delivery
// guarantees and answers as core.Engine.Search does; a deduplicated
// follower joining mid-flight and a later result-cache hit are settled —
// each delivers one ResultEvent with the identical *Result — and the
// pipeline ran once.
func TestStreamReplayIdentical(t *testing.T) {
	eng := testEngine(t)
	release := make(chan struct{})
	srv := New(eng, Config{BeforeRun: func() { <-release }})
	ctx := context.Background()
	opts := testOpts()
	opts.TimeBound = 2 * time.Second

	leader, err := srv.Stream(ctx, q117(), opts)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := srv.Stream(ctx, q117(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().FlightShared; got != 1 {
		t.Fatalf("FlightShared = %d, want 1 (follower joined)", got)
	}
	close(release)

	events, res := drainStream(t, leader)
	checkLive(t, "leader", events, res)
	direct, err := eng.Search(ctx, q117(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(answersJSON(t, res), answersJSON(t, direct)) {
		t.Fatalf("live stream answers differ from core.Engine.Search:\n%s\nvs\n%s",
			answersJSON(t, res), answersJSON(t, direct))
	}
	checkSettled(t, "follower", follower, res)
	hit, err := srv.Stream(ctx, q117(), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkSettled(t, "cache hit", hit, res)
	if st := srv.Stats(); st.PipelineRuns != 1 || st.ResultHits != 1 {
		t.Fatalf("stats = %+v, want 1 pipeline run and 1 result hit", st)
	}
}

// TestStreamHitAfterSearchMiss: a batch Search records no events, so a
// Stream answered from its cache entry delivers exactly one event — the
// result the Search returned.
func TestStreamHitAfterSearchMiss(t *testing.T) {
	srv := New(testEngine(t), Config{})
	ctx := context.Background()
	res, err := srv.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Stream(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkSettled(t, "stream hit", st, res)
	if st := srv.Stats(); st.ResultHits != 1 || st.PipelineRuns != 1 {
		t.Fatalf("stats = %+v, want 1 result hit and 1 pipeline run", st)
	}
}

// TestStreamJoiningSearchIsSettled: a Stream that joins a flight a Search
// started delivers the shared result as its one event.
func TestStreamJoiningSearchIsSettled(t *testing.T) {
	release := make(chan struct{})
	srv := New(testEngine(t), Config{BeforeRun: func() { <-release }})
	ctx := context.Background()
	done := make(chan *core.Result, 1)
	go func() {
		res, err := srv.Search(ctx, q117(), testOpts())
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	waitBusy(t, srv, 1)
	st, err := srv.Stream(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	checkSettled(t, "stream follower", st, <-done)
	if st := srv.Stats(); st.FlightShared != 1 || st.PipelineRuns != 1 {
		t.Fatalf("stats = %+v, want 1 shared flight and 1 pipeline run", st)
	}
}

// TestServeMissAllocs pins what the serving layer adds to a pipeline run
// when every cache misses. With the result and sub-search caches off, a
// serve.Search allocates at most 30 objects more than the
// core.Engine.Search it wraps. With the default config, where each miss
// keys its sub-query and shares its search through the sub-cache, a miss
// allocates the same over a 100-member and a 10k-member φ(?Automobile):
// the key costs the sub-query, not its end set.
func TestServeMissAllocs(t *testing.T) {
	eng := testEngine(t)
	srv := New(eng, Config{ResultCache: -1, SubCache: -1})
	ctx := context.Background()
	q, opts := q117(), testOpts()
	search := func(s interface {
		Search(context.Context, *query.Graph, core.Options) (*core.Result, error)
	}) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := s.Search(ctx, q, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, served := search(eng), search(srv)
	t.Logf("core.Engine.Search %.0f allocs, serve.Search %.0f (+%.0f)", base, served, served-base)
	if served > base+30 {
		t.Fatalf("serve.Search allocates %.0f objects, core.Engine.Search %.0f: the serving layer adds %.0f, want ≤ 30",
			served, base, served-base)
	}

	// Every request a new τ: the result, plan and sub-search caches all
	// miss, in the same sequence at both sizes.
	defaultMiss := func(pad int) float64 {
		srv := New(buildEngine(t, true, pad), Config{})
		i := 0
		return testing.AllocsPerRun(50, func() {
			i++
			o := testOpts()
			o.Tau = 0.5 + 1e-3*float64(i)
			if _, err := srv.Search(ctx, q, o); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Equal in a plain build; the slack of 2 absorbs the ±1 the counts
	// wander by under the race detector. A key that walks φ adds
	// thousands at 10k.
	small, large := defaultMiss(100), defaultMiss(10_000)
	t.Logf("default config, miss: %.0f allocs at |φ| ≈ 100, %.0f at |φ| ≈ 10k", small, large)
	if large > small+2 || small > large+2 {
		t.Fatalf("a default-config miss allocates %.0f objects at |φ| ≈ 100 and %.0f at |φ| ≈ 10k, want equal", small, large)
	}
}

// TestRebuildInvalidates: swapping the engine starts a generation with
// empty caches, and the next identical request answers from the new graph.
func TestRebuildInvalidates(t *testing.T) {
	srv := New(buildEngine(t, true, 0), Config{})
	ctx := context.Background()

	before, err := srv.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !hasAnswer(before, "BMW_X6") {
		t.Fatalf("expected BMW_X6 via manufacturer schema, got %v", before.Entities())
	}
	srv.Rebuild(buildEngine(t, false, 0)) // X6 now assembled in France
	after, err := srv.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if hasAnswer(after, "BMW_X6") {
		t.Fatalf("stale cached answer after rebuild: %v", after.Entities())
	}
	st := srv.Stats()
	if st.Rebuilds != 1 || st.ResultEntries == 0 {
		t.Fatalf("stats after rebuild = %+v", st)
	}
	if st.PipelineRuns != 2 {
		t.Fatalf("pipeline runs = %d, want 2 (cache flushed)", st.PipelineRuns)
	}
}

func hasAnswer(res *core.Result, entity string) bool {
	for _, a := range res.Answers {
		if a.PivotName == entity {
			return true
		}
	}
	return false
}

// TestUncacheableBypass: requests carrying process-local hooks (test
// clock) bypass cache and dedup — every request runs the pipeline.
func TestUncacheableBypass(t *testing.T) {
	srv := New(testEngine(t), Config{})
	ctx := context.Background()
	opts := testOpts()
	opts.TimeBound = time.Second
	opts.Clock = &tbq.StepClock{Step: 50 * time.Microsecond}

	for i := 0; i < 2; i++ {
		if _, err := srv.Search(ctx, q117(), opts); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Uncacheable != 2 || st.PipelineRuns != 2 || st.ResultHits != 0 {
		t.Fatalf("stats = %+v, want 2 uncacheable pipeline runs", st)
	}
}

// TestCutResultNotCached: a time-bounded run cut at T·r% answers its own
// request flagged approximate, but is never published to the result
// cache — an identical later request runs the pipeline again instead of
// inheriting the cut answer for the rest of the generation.
func TestCutResultNotCached(t *testing.T) {
	srv := New(testEngine(t), Config{})
	ctx := context.Background()
	opts := testOpts()
	opts.TimeBound = time.Nanosecond

	for i := 1; i <= 2; i++ {
		res, err := srv.Search(ctx, q117(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Approximate {
			t.Fatalf("search %d: a 1ns bound was not cut", i)
		}
		if st := srv.Stats(); st.ResultHits != 0 || st.PipelineRuns != uint64(i) || st.ResultEntries != 0 {
			t.Fatalf("search %d: stats = %+v, want %d pipeline runs and nothing cached", i, st, i)
		}
	}
	exact, err := srv.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if exact.Approximate || len(exact.Answers) == 0 {
		t.Fatalf("exact search: %d answers, approximate %v", len(exact.Answers), exact.Approximate)
	}
}

// TestAdmissionShedsQueueFull: with one worker and no queue, a request
// arriving while the worker is busy is shed with a Retry-After hint.
func TestAdmissionShedsQueueFull(t *testing.T) {
	eng := testEngine(t)
	release := make(chan struct{})
	srv := New(eng, Config{Workers: 1, Queue: -1, BeforeRun: func() { <-release }})
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

// TestAdmissionShedsDeadline: a queued request whose TimeBound cannot
// cover the projected queue wait is rejected immediately; one with an
// ample bound waits and completes.
func TestAdmissionShedsDeadline(t *testing.T) {
	eng := testEngine(t)
	release := make(chan struct{})
	srv := New(eng, Config{
		Workers:   1,
		Queue:     8,
		BeforeRun: func() { <-release },
	})
	srv.adm.estRunNs.Store(int64(100 * time.Millisecond))
	ctx := context.Background()

	done := make(chan error, 1)
	go func() {
		_, err := srv.Search(ctx, q117(), testOpts())
		done <- err
	}()
	waitBusy(t, srv, 1)

	// Projected wait (1 waiter × 100ms / 1 worker) exceeds this bound.
	tight := testOpts()
	tight.TimeBound = 50 * time.Millisecond
	_, err := srv.Search(ctx, clubQuery(), tight)
	var over *OverloadedError
	if !errors.As(err, &over) || over.Reason != "deadline" {
		t.Fatalf("err = %v, want deadline OverloadedError", err)
	}

	// An ample bound queues and completes once the worker frees up.
	ample := testOpts()
	ample.TimeBound = 10 * time.Second
	queued := make(chan error, 1)
	go func() {
		_, err := srv.Search(ctx, clubQuery(), ample)
		queued <- err
	}()
	waitQueued(t, srv, 1)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.RejectedDeadline != 1 {
		t.Fatalf("RejectedDeadline = %d, want 1", st.RejectedDeadline)
	}
}

// TestAdmissionColdSeed: before any request completes, a layer's service
// time estimate is 1ms.
func TestAdmissionColdSeed(t *testing.T) {
	if got := New(testEngine(t), Config{}).Stats().EstimatedRun; got != time.Millisecond {
		t.Errorf("cold estimate %v, want 1ms", got)
	}
}

func waitBusy(t *testing.T, srv *Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().BusyWorkers < n {
		if time.Now().After(deadline) {
			t.Fatalf("worker never became busy (stats %+v)", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func waitQueued(t *testing.T, srv *Engine, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().QueueDepth < n {
		if time.Now().After(deadline) {
			t.Fatalf("request never queued (stats %+v)", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBadRequests: validation failures surface as BadRequestError without
// touching the pipeline or caches.
func TestBadRequests(t *testing.T) {
	srv := New(testEngine(t), Config{})
	ctx := context.Background()

	var bad core.BadRequestError
	if _, err := srv.Search(ctx, &query.Graph{}, testOpts()); !errors.As(err, &bad) {
		t.Fatalf("empty query: err = %v, want BadRequestError", err)
	}
	opts := testOpts()
	opts.Tau = 1.5
	if _, err := srv.Search(ctx, q117(), opts); !errors.As(err, &bad) {
		t.Fatalf("bad tau: err = %v, want BadRequestError", err)
	}
	if _, err := srv.Stream(ctx, q117(), opts); !errors.As(err, &bad) {
		t.Fatalf("bad tau stream: err = %v, want BadRequestError", err)
	}
	if st := srv.Stats(); st.PipelineRuns != 0 {
		t.Fatalf("bad requests ran the pipeline: %+v", st)
	}
}

// TestSearchContextCancelled: a caller abandoning a shared flight gets its
// context error; the flight itself is cancelled once the last participant
// leaves.
func TestSearchContextCancelled(t *testing.T) {
	eng := testEngine(t)
	release := make(chan struct{})
	defer close(release)
	srv := New(eng, Config{BeforeRun: func() { <-release }})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.Search(ctx, q117(), testOpts())
		done <- err
	}()
	waitBusy(t, srv, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDeadFlightNotJoined is the regression test for joining a flight
// whose last participant already left: that flight is cancelled and will
// produce a partial anytime result, so a fresh request arriving while the
// dying leader is still winding down must start a new pipeline execution
// instead — and receive the complete answer set.
func TestDeadFlightNotJoined(t *testing.T) {
	eng := testEngine(t)
	release := make(chan struct{})
	srv := New(eng, Config{Workers: 2, BeforeRun: func() { <-release }})

	want, err := eng.Search(context.Background(), q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}

	// First request: cancelled while its (gated) flight is in-flight. Its
	// departure drops the flight's refs to zero, cancelling the pipeline.
	ctxA, cancelA := context.WithCancel(context.Background())
	doneA := make(chan error, 1)
	go func() {
		_, err := srv.Search(ctxA, q117(), testOpts())
		doneA <- err
	}()
	waitBusy(t, srv, 1)
	cancelA()
	if err := <-doneA; !errors.Is(err, context.Canceled) {
		t.Fatalf("first request: err = %v, want context.Canceled", err)
	}

	// Second identical request: the dying flight is still registered (its
	// leader is blocked in the gate), but it must not be joined.
	doneB := make(chan *core.Result, 1)
	go func() {
		res, err := srv.Search(context.Background(), q117(), testOpts())
		if err != nil {
			t.Errorf("second request: %v", err)
		}
		doneB <- res
	}()
	waitBusy(t, srv, 2) // B runs its own pipeline on the second worker
	close(release)
	res := <-doneB
	if res == nil || !bytes.Equal(answersJSON(t, res), answersJSON(t, want)) {
		t.Fatalf("second request got a partial result: %+v", res)
	}
	st := srv.Stats()
	if st.PipelineRuns != 2 {
		t.Fatalf("pipeline runs = %d, want 2 (no dead-flight join)", st.PipelineRuns)
	}
	if st.FlightShared != 0 {
		t.Fatalf("FlightShared = %d, want 0", st.FlightShared)
	}
}

// TestStreamResultWithoutDraining: Result() must not depend on event
// delivery — a consumer that never touches Events() still gets the
// terminal outcome, from a live stream whose events outnumber the
// delivery buffer and from a settled one.
func TestStreamResultWithoutDraining(t *testing.T) {
	srv := New(testEngine(t), Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // releases the undrained delivery goroutines
	for _, name := range []string{"live", "settled"} {
		s, err := srv.Stream(ctx, q117(), testOpts())
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan *core.Result, 1)
		go func() {
			res, err := s.Result()
			if err != nil {
				t.Errorf("%s Result: %v", name, err)
			}
			got <- res
		}()
		select {
		case res := <-got:
			if res == nil || len(res.Answers) == 0 {
				t.Fatalf("%s: Result returned no answers", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Result() deadlocked with undrained Events", name)
		}
	}
}

// TestRebuildNotJoinedMidFlight: a request arriving after Rebuild must not
// join a flight started on the previous engine generation — it runs its
// own pipeline against the new engine. The retired flight finishing last
// publishes into its own generation's cache, which no request reaches: the
// next identical request hits the new generation's entry.
func TestRebuildNotJoinedMidFlight(t *testing.T) {
	release := make(chan struct{})
	srv := New(buildEngine(t, true, 0), Config{Workers: 2, BeforeRun: func() { <-release }})

	oldDone := make(chan *core.Result, 1)
	go func() {
		res, err := srv.Search(context.Background(), q117(), testOpts())
		if err != nil {
			t.Errorf("pre-rebuild request: %v", err)
		}
		oldDone <- res
	}()
	waitBusy(t, srv, 1)

	srv.Rebuild(buildEngine(t, false, 0)) // X6 moves to France

	newDone := make(chan *core.Result, 1)
	go func() {
		res, err := srv.Search(context.Background(), q117(), testOpts())
		if err != nil {
			t.Errorf("post-rebuild request: %v", err)
		}
		newDone <- res
	}()
	waitBusy(t, srv, 2) // the post-rebuild request leads its own flight
	close(release)

	oldRes, newRes := <-oldDone, <-newDone
	if !hasAnswer(oldRes, "BMW_X6") {
		t.Errorf("pre-rebuild request should answer from the old graph: %v", oldRes.Entities())
	}
	if hasAnswer(newRes, "BMW_X6") {
		t.Errorf("post-rebuild request served the retired engine's flight: %v", newRes.Entities())
	}
	st := srv.Stats()
	if st.FlightShared != 0 || st.PipelineRuns != 2 {
		t.Fatalf("stats = %+v, want 2 independent pipeline runs", st)
	}

	third, err := srv.Search(context.Background(), q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if hasAnswer(third, "BMW_X6") {
		t.Errorf("third request answered from the retired engine: %v", third.Entities())
	}
	after := srv.Stats()
	if after.ResultEntries != 1 || after.ResultHits != st.ResultHits+1 || after.PipelineRuns != 2 {
		t.Fatalf("third request: stats = %+v, want one result-cache hit on the new generation's one entry", after)
	}
}

// TestKeyCanonicalization: option values that run the identical pipeline
// share cache keys (alert-ratio default in TBQ mode, alert ratio ignored
// in exact mode, strategy overridden by an explicit pivot).
func TestKeyCanonicalization(t *testing.T) {
	q := q117()
	tbqA, tbqB := testOpts(), testOpts()
	tbqA.TimeBound, tbqB.TimeBound = time.Second, time.Second
	tbqB.AlertRatio = tbq.DefaultAlertRatio // == unset
	if resultKey(q, tbqA) != resultKey(q, tbqB) {
		t.Error("TBQ alert ratio 0 vs the tbq default should share a key")
	}
	exactA, exactB := testOpts(), testOpts()
	exactB.AlertRatio = 0.5 // ignored without a time bound
	if resultKey(q, exactA) != resultKey(q, exactB) {
		t.Error("exact-mode requests differing only in alert ratio should share a key")
	}
	tbqB.AlertRatio = 0.5 // a real TBQ difference must not collide
	if resultKey(q, tbqA) == resultKey(q, tbqB) {
		t.Error("TBQ alert ratio default vs 0.5 must not share a key")
	}
}
