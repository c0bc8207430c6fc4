package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"semkg/internal/datagen"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/oracle"
	"semkg/internal/query"
	"semkg/internal/semgraph"
	"semkg/internal/tbq"
	"semkg/internal/transform"
)

// oracleCheck judges res — the engine's answer to q under opts over e's
// world — against the independent brute-force oracle (internal/oracle)
// under the comparison rule, and returns the oracle's ranking. lib is the
// library e was built with.
func oracleCheck(t *testing.T, name string, e *Engine, lib *transform.Library, q *query.Graph, opts Options, res *Result) *oracle.Ranking {
	t.Helper()
	w := oracle.World{G: e.g, Space: e.space, Resolve: func(pred string) kg.PredID {
		p, err := semgraph.ResolvePredicate(e.g, pred)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}}
	if lib != nil {
		w.Expand = lib.Expand
	}
	opts = opts.withDefaults()
	r := w.Rank(q, res.Decomposition, opts.Tau, opts.MaxHops, opts.K)
	answers := make([]oracle.Answer, len(res.Answers))
	for i, a := range res.Answers {
		answers[i] = oracle.Answer{Pivot: a.PivotName, Score: a.Score}
		for _, p := range a.Parts {
			part := oracle.Part{PSS: p.PSS}
			for _, st := range p.Steps {
				part.Steps = append(part.Steps, oracle.Step(st))
			}
			answers[i].Parts = append(answers[i].Parts, part)
		}
	}
	if err := r.Check(answers, res.Approximate); err != nil {
		t.Errorf("%s: %v\n  engine: %v\n  oracle: %+v", name, err, res.Entities(), r.All[:min(len(r.All), opts.K+2)])
	}
	return r
}

// tinyWorld generates a small deterministic benchmark world with a random
// — but deterministic per seed — predicate space (no training: the
// equivalence property is about pipelines, not embedding quality).
func tinyWorld(t *testing.T, seed int64) (*datagen.Dataset, *Engine) {
	t.Helper()
	ds := datagen.Generate(datagen.Profile{
		Name: "tiny", Seed: seed,
		Countries: 4, CitiesPerCtr: 2, Companies: 12, Autos: 70,
		People: 24, Engines: 12, Clubs: 6, FillerTypes: 2, FillerPerType: 3,
	})
	rng := rand.New(rand.NewSource(seed * 31))
	names := ds.Graph.Predicates()
	vecs := make([]embed.Vector, len(names))
	for i := range vecs {
		v := make(embed.Vector, 8)
		for j := range v {
			v[j] = 0.1 + 0.9*rng.Float64() // positive: cosine weights stay in (0,1]
		}
		vecs[i] = v
	}
	sp, err := embed.NewSpace(names, vecs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds.Graph, sp, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	return ds, e
}

// assertResultsEqual compares everything except Elapsed (wall time).
func assertResultsEqual(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Answers, want.Answers) {
		t.Errorf("%s: answers differ:\n got %+v\nwant %+v", name, got.Answers, want.Answers)
	}
	if got.Approximate != want.Approximate {
		t.Errorf("%s: approximate %v vs %v", name, got.Approximate, want.Approximate)
	}
	if !reflect.DeepEqual(got.Collected, want.Collected) {
		t.Errorf("%s: collected %v vs %v", name, got.Collected, want.Collected)
	}
	if !reflect.DeepEqual(got.SearchStats, want.SearchStats) {
		t.Errorf("%s: search stats %+v vs %+v", name, got.SearchStats, want.SearchStats)
	}
	if got.Decomposition.Pivot != want.Decomposition.Pivot {
		t.Errorf("%s: pivot %q vs %q", name, got.Decomposition.Pivot, want.Decomposition.Pivot)
	}
}

// drainStream consumes a stream to completion, returning the events in
// order and the terminal result.
func drainStream(t *testing.T, s *Stream) ([]Event, *Result) {
	t.Helper()
	var events []Event
	for ev := range s.Events() {
		events = append(events, ev)
	}
	return events, s.Result()
}

// TestStreamBatchEquivalenceSGQ is the property test of the acceptance
// criteria: on generated worlds, batch Search returns what the oracle
// says is the top-k, and consuming a Stream to completion yields a result
// identical to it.
func TestStreamBatchEquivalenceSGQ(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{3, 17, 42} {
		ds, e := tinyWorld(t, seed)
		queries := ds.Simple
		if len(ds.Medium) > 0 {
			queries = append(append([]datagen.GenQuery{}, queries...), ds.Medium[0])
		}
		if len(ds.Complex) > 0 {
			queries = append(queries, ds.Complex[0])
		}
		if len(queries) > 5 {
			queries = queries[:5]
		}
		for _, q := range queries {
			opts := Options{K: 5, Tau: 0.5, MaxHops: 3}
			want, err := e.Search(ctx, q.Graph, opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, q.Name, err)
			}
			oracleCheck(t, q.Name+"/batch", e, ds.Library, q.Graph, opts, want)

			st, err := e.Stream(ctx, q.Graph, opts)
			if err != nil {
				t.Fatal(err)
			}
			events, res := drainStream(t, st)
			assertResultsEqual(t, q.Name+"/stream", res, want)
			checkEventOrdering(t, q.Name, events, res)
		}
	}
}

// TestStreamBatchEquivalenceTBQ covers the time-bounded mode: an ample
// deterministic budget (never cut: the exact run's answers and effort) on
// multi-sub-query graphs, and a tight budget (cut: complete candidates at
// their oracle scores) on single-sub-query graphs, where one prefetch
// goroutine makes the StepClock observation sequence deterministic — so
// batch and stream agree field for field in both.
func TestStreamBatchEquivalenceTBQ(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 8)
	run := func(name string, q *query.Graph, opts Options, clock func() tbq.Clock) {
		o2 := opts
		o2.Clock = clock()
		want, err := e.Search(ctx, q, o2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		oracleCheck(t, name+"/batch", e, ds.Library, q, opts, want)
		if opts.TimeBound == time.Hour {
			exact := opts
			exact.TimeBound = 0
			sgq, err := e.Search(ctx, q, exact)
			if err != nil {
				t.Fatal(err)
			}
			if want.Approximate {
				t.Errorf("%s: flagged approximate under a one-hour bound", name)
			}
			if !reflect.DeepEqual(want.Answers, sgq.Answers) || !reflect.DeepEqual(want.SearchStats, sgq.SearchStats) {
				t.Errorf("%s: uncut run differs from the exact run", name)
			}
		}

		o3 := opts
		o3.Clock = clock()
		st, err := e.Stream(ctx, q, o3)
		if err != nil {
			t.Fatal(err)
		}
		events, res := drainStream(t, st)
		assertResultsEqual(t, name+"/stream", res, want)
		checkEventOrdering(t, name, events, res)
	}

	// Ample budget: no cut, so the interleaving of clock observations
	// across prefetch goroutines cannot change the run.
	ample := Options{K: 5, Tau: 0.5, MaxHops: 3, TimeBound: time.Hour}
	for _, q := range []datagen.GenQuery{ds.Simple[0], ds.Medium[0]} {
		run(q.Name+"/ample", q.Graph, ample, func() tbq.Clock {
			return &tbq.StepClock{Step: time.Microsecond}
		})
	}

	// Tight budget on single-sub-query (Complexity 1) graphs: one search
	// goroutine, so the StepClock observation sequence is deterministic.
	tight := Options{K: 5, Tau: 0.5, MaxHops: 3, TimeBound: 200 * time.Microsecond}
	for _, q := range ds.Simple[:2] {
		if q.Complexity != 1 {
			continue
		}
		run(q.Name+"/tight", q.Graph, tight, func() tbq.Clock {
			return &tbq.StepClock{Step: 10 * time.Microsecond}
		})
	}
}

// checkEventOrdering asserts the stream's documented ordering guarantees:
// exactly one terminal ResultEvent at the end, assemble phase after
// search phase, monotone topk rounds with the last snapshot equal to the
// final ranking.
func checkEventOrdering(t *testing.T, name string, events []Event, res *Result) {
	t.Helper()
	if len(events) == 0 {
		t.Fatalf("%s: no events", name)
	}
	last := events[len(events)-1]
	re, ok := last.(ResultEvent)
	if !ok {
		t.Fatalf("%s: last event is %T, want ResultEvent", name, last)
	}
	if re.Result != res {
		t.Errorf("%s: terminal event result != Stream.Result()", name)
	}
	sawSearch, sawAssemble := false, false
	lastRound := 0
	var lastTopK *TopKEvent
	for i, ev := range events {
		switch e := ev.(type) {
		case ResultEvent:
			if i != len(events)-1 {
				t.Errorf("%s: ResultEvent at %d is not last", name, i)
			}
		case PhaseEvent:
			switch e.Phase {
			case PhaseSearch:
				sawSearch = true
			case PhaseAssemble:
				if !sawSearch {
					t.Errorf("%s: assemble phase before search phase", name)
				}
				sawAssemble = true
			case PhaseAlert:
				if !sawSearch {
					t.Errorf("%s: alert phase before search phase", name)
				}
			}
		case TopKEvent:
			if e.Round < lastRound {
				t.Errorf("%s: topk round went backwards (%d after %d)", name, e.Round, lastRound)
			}
			lastRound = e.Round
			cp := e
			lastTopK = &cp
		case ProgressEvent:
			if e.Sub < 0 || len(res.SearchStats) > 0 && e.Sub >= len(res.SearchStats) {
				t.Errorf("%s: progress for out-of-range sub %d", name, e.Sub)
			}
		}
	}
	if len(res.Answers) > 0 {
		if !sawAssemble {
			t.Errorf("%s: answers produced without an assemble phase event", name)
		}
		if lastTopK == nil {
			t.Fatalf("%s: no provisional topk event before terminal result", name)
		}
		if !reflect.DeepEqual(lastTopK.Answers, res.Answers) {
			t.Errorf("%s: last topk != final answers:\n got %+v\nwant %+v",
				name, lastTopK.Answers, res.Answers)
		}
	}
}

// TestStreamTBQSubDone: time-bounded streams report the end of each
// sub-query's prefetch with a Done-flagged progress event.
func TestStreamTBQSubDone(t *testing.T) {
	e := newTestEngine(t)
	st, err := e.Stream(context.Background(), q117("assembly"), Options{
		K: 10, Tau: 0.75, MaxHops: 4,
		TimeBound: 5 * time.Second,
		Clock:     &tbq.StepClock{Step: 10 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	events, res := drainStream(t, st)
	doneSubs := make(map[int]bool)
	for _, ev := range events {
		if p, ok := ev.(ProgressEvent); ok && p.Done {
			doneSubs[p.Sub] = true
		}
	}
	for i := range res.SearchStats {
		if !doneSubs[i] {
			t.Errorf("sub %d never reported Done (events: %d)", i, len(events))
		}
	}
}

// TestStreamCancelledContext: cancellation is anytime behaviour — the
// stream still terminates with a result.
func TestStreamCancelledContext(t *testing.T) {
	e := newTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := e.Stream(ctx, q117("assembly"), Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	events, res := drainStream(t, st)
	if res == nil {
		t.Fatal("cancelled stream must still produce a terminal result")
	}
	if _, ok := events[len(events)-1].(ResultEvent); !ok {
		t.Fatal("cancelled stream must end with a ResultEvent")
	}
}

// TestStreamResultWithoutDraining: Result must not deadlock when the
// caller never reads the events channel.
func TestStreamResultWithoutDraining(t *testing.T) {
	e := newTestEngine(t)
	st, err := e.Stream(context.Background(), q117("assembly"), Options{K: 10, Tau: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() { done <- st.Result() }()
	select {
	case res := <-done:
		if len(res.Answers) == 0 {
			t.Error("expected answers")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Result deadlocked without an event consumer")
	}
}

// TestStreamInvalidOptions: Validate runs before the pipeline starts.
func TestStreamInvalidOptions(t *testing.T) {
	e := newTestEngine(t)
	bad := []Options{
		{K: -1},
		{Tau: 1.5},
		{Tau: -0.1},
		{MaxHops: -2},
		{TimeBound: -time.Second},
		{AlertRatio: 2},
	}
	for _, opts := range bad {
		if _, err := e.Stream(context.Background(), q117("assembly"), opts); err == nil {
			t.Errorf("Stream accepted invalid options %+v", opts)
		}
		if _, err := e.Search(context.Background(), q117("assembly"), opts); err == nil {
			t.Errorf("Search accepted invalid options %+v", opts)
		}
	}
	// Zero values remain valid (defaults).
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options should validate: %v", err)
	}
}
