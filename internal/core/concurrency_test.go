package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"semkg/internal/query"
)

// TestEngineConcurrentSearchStream exercises one engine's shared state —
// the RowCache rows, the node-match indexes behind per-call Memos, and
// the lazily calibrated TBQ per-match cost — from many goroutines mixing
// Search and Stream, and asserts every concurrent result is identical to
// the serial reference. Run with -race: this is the concurrency guard for
// the "safe for concurrent use" contract the serving layer builds on.
func TestEngineConcurrentSearchStream(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()

	queries := []*query.Graph{
		q117("assembly"),
		q117("product"), // vocabulary-miss predicate: resolves via similarity
		{
			Nodes: []query.Node{
				{ID: "v1", Type: "Automobile"},
				{ID: "v2", Name: "Germany", Type: "Country"},
				{ID: "v3", Type: "City"},
			},
			Edges: []query.Edge{
				{From: "v1", To: "v3", Predicate: "assembly"},
				{From: "v3", To: "v2", Predicate: "country"},
			},
		},
	}
	optsFor := func(qi int) Options {
		opts := Options{K: 10, Tau: 0.6}
		if qi == 1 {
			// An ample bound is never cut, so the TBQ run finishes the
			// exact pipeline and stays deterministic under concurrency.
			opts.TimeBound = 30 * time.Second
		}
		return opts
	}

	serial := make([]*Result, len(queries))
	for i, q := range queries {
		res, err := e.Search(ctx, q, optsFor(i))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		serial[i] = res
	}

	const (
		workers = 16
		rounds  = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (w + r) % len(queries)
				var res *Result
				var err error
				if (w+r)%2 == 0 {
					res, err = e.Search(ctx, queries[qi], optsFor(qi))
				} else {
					var st *Stream
					st, err = e.Stream(ctx, queries[qi], optsFor(qi))
					if err == nil {
						for range st.Events() {
							// Drain: the terminal result must match batch.
						}
						res = st.Result()
					}
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d query %d: %w", w, r, qi, err)
					return
				}
				if err := sameAnswers(res, serial[qi]); err != nil {
					errs <- fmt.Errorf("worker %d round %d query %d: %w", w, r, qi, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// sameAnswers compares two results' answers in full (entities, scores,
// bindings, rendered paths); Elapsed and SearchStats legitimately vary.
func sameAnswers(got, want *Result) error {
	if len(got.Answers) != len(want.Answers) {
		return fmt.Errorf("answer count %d != %d", len(got.Answers), len(want.Answers))
	}
	if !reflect.DeepEqual(got.Answers, want.Answers) {
		return fmt.Errorf("answers differ:\n%+v\nvs serial\n%+v", got.Answers, want.Answers)
	}
	if got.Approximate != want.Approximate {
		return fmt.Errorf("approximate %t != %t", got.Approximate, want.Approximate)
	}
	return nil
}

// TestEngineConcurrentPlanReuse runs many concurrent searches through one
// shared compiled Plan — immutable once Compile returns, so safe to share —
// and checks the results against the serial reference.
func TestEngineConcurrentPlanReuse(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	q := q117("assembly")
	opts := Options{K: 10, Tau: 0.6}

	p, err := e.Compile(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.SearchPlan(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				res, err := e.SearchPlan(ctx, p, opts)
				if err != nil {
					errs <- err
					return
				}
				if err := sameAnswers(res, want); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
