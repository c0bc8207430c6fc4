package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestSearchPlanEquivalence: a plan compiled once and run repeatedly —
// including with different runtime options (K) — produces the same
// answers as the unplanned Search.
func TestSearchPlanEquivalence(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	q := q117("assembly")
	opts := Options{K: 10, Tau: 0.6}

	p, err := e.Compile(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Compiled() || p.Pivot() == "" {
		t.Fatalf("plan not compiled: %+v", p)
	}

	want, err := e.Search(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		got, err := e.SearchPlan(ctx, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Answers, want.Answers) {
			t.Fatalf("run %d: planned answers differ from Search:\n%v\nvs\n%v", run, got.Answers, want.Answers)
		}
	}

	// K is a runtime option: the same plan serves a different K.
	optsK3 := opts
	optsK3.K = 3
	wantK3, err := e.Search(ctx, q, optsK3)
	if err != nil {
		t.Fatal(err)
	}
	gotK3, err := e.SearchPlan(ctx, p, optsK3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotK3.Answers, wantK3.Answers) {
		t.Fatalf("K=3 planned answers differ:\n%v\nvs\n%v", gotK3.Answers, wantK3.Answers)
	}
}

// TestSearchPlanMismatch: a plan run under different compile-relevant
// options, or on a different engine, is rejected.
func TestSearchPlanMismatch(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	q := q117("assembly")
	p, err := e.Compile(q, Options{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}

	_, err = e.SearchPlan(ctx, p, Options{Tau: 0.9})
	var bad BadRequestError
	if err == nil || !errors.As(err, &bad) {
		t.Fatalf("tau mismatch: err = %v, want BadRequestError", err)
	}

	assertForeignPlan(t, newTestEngine(t), p)
}

// assertForeignPlan checks that other refuses to run p because another
// engine compiled it: plans belong to the engine that compiled them.
func assertForeignPlan(t *testing.T, other *Engine, p *Plan) {
	t.Helper()
	_, err := other.SearchPlan(context.Background(), p, Options{Tau: 0.5})
	if err == nil || !strings.Contains(err.Error(), "compiled by a different engine") {
		t.Fatalf("foreign engine ran the plan: err = %v", err)
	}
}

// TestCompileMismatchedQuery: a query node with no graph matches compiles
// to a runnable empty plan, not an error (the paper's G1_Q case).
func TestCompileMismatchedQuery(t *testing.T) {
	e := newTestEngine(t)
	q := q117("assembly")
	q.Nodes[1].Name = "Atlantis"
	q.Nodes[1].Type = "Continent"
	p, err := e.Compile(q, Options{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if p.Compiled() {
		t.Fatal("mismatched query reported as compiled")
	}
	res, err := e.SearchPlan(context.Background(), p, Options{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Fatalf("answers = %v, want none", res.Answers)
	}
}

// TestOptionsNormalized: defaults are applied, set fields preserved.
func TestOptionsNormalized(t *testing.T) {
	n := Options{}.Normalized()
	if n.K != 10 || n.Tau != 0.8 || n.MaxHops != 4 {
		t.Fatalf("Normalized zero options = %+v", n)
	}
	n = Options{K: 3, Tau: 0.5, MaxHops: 2}.Normalized()
	if n.K != 3 || n.Tau != 0.5 || n.MaxHops != 2 {
		t.Fatalf("Normalized set options = %+v", n)
	}
}
