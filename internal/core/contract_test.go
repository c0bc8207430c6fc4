package core

import (
	"context"
	"testing"
	"time"

	"semkg/internal/shard"
	"semkg/internal/tbq"
)

// TestOneEventContract pins the single pipeline's contract across every
// deployment shape: the same generated queries — exact, time-bounded
// with a budget that never cuts, and time-bounded on a step clock that
// cuts — run through the whole-graph engine, an in-process partition and
// a resharding engine on both sides of its swap. Each shape's Deployment must describe it. An
// uncut run must return the reference result
// (answers and pivot, unflagged) — the whole-graph engine's, itself
// judged by the oracle; a cut run is judged by the oracle's approximate
// rule. Every run emits the same event skeleton:
//
//	search → per-source progress, exactly one Done each → assemble with
//	per-sub-query counts → at least one topk → result
//
// and alert means "the T·r% cut was taken": at most once, only on a cut
// (a flagged-approximate result), between search and result.
func TestOneEventContract(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 17)

	gate := make(chan struct{})
	ready := make(chan struct{})
	resharding := NewResharding(e, nil, ReshardConfig{
		Shard:   shard.Options{Shards: 3},
		Gate:    func() { <-gate },
		OnReady: func(ShardedStats) { close(ready) },
		OnError: func(err error) { t.Errorf("background partition failed: %v", err) },
	})
	shapes := []struct {
		name     string
		eng      *Engine
		shards   int                   // partition size progress events may name; 0 = whole graph
		before   func()                // runs once before the shape's queries
		deployed func(Deployment) bool // what Deployment must report
	}{
		{name: "single", eng: e, deployed: func(d Deployment) bool { return d == Deployment{} }},
		{name: "sharded", eng: shardedOver(t, e, 3), shards: 3,
			deployed: func(d Deployment) bool { return d.Shards == 3 && d.Sharded != nil }},
		{name: "resharding/before", eng: resharding,
			deployed: func(d Deployment) bool { return d.Resharding && d.Shards == 0 }},
		{name: "resharding/after", eng: resharding, shards: 3, before: func() {
			close(gate)
			select {
			case <-ready:
			case <-time.After(30 * time.Second):
				t.Fatal("background partition never became ready")
			}
		}, deployed: func(d Deployment) bool { return d.Shards == 3 }},
	}
	base := Options{K: 5, Tau: 0.5, MaxHops: 3}
	modes := []struct {
		name string
		opts func() Options
	}{
		{"sgq", func() Options { return base }},
		{"tbq", func() Options { o := base; o.TimeBound = time.Hour; return o }},
		{"tbq-cut", func() Options {
			o := base
			o.TimeBound, o.Clock = 100*time.Microsecond, &tbq.StepClock{Step: 10 * time.Microsecond}
			return o
		}},
	}

	for _, shape := range shapes {
		if shape.before != nil {
			shape.before()
		}
		if d := shape.eng.Deployment(); !shape.deployed(d) {
			t.Errorf("%s: unexpected deployment %+v", shape.name, d)
		}
		cuts := 0
		for _, mode := range modes {
			for _, q := range shardedWorkload(ds)[:4] {
				name := shape.name + "/" + mode.name + "/" + q.Name
				want, err := e.Search(ctx, q.Graph, mode.opts())
				if err != nil {
					t.Fatal(err)
				}
				oracleCheck(t, name+"/reference", e, ds.Library, q.Graph, mode.opts(), want)
				st, err := shape.eng.Stream(ctx, q.Graph, mode.opts())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				events, got := drainStream(t, st)

				if mode.name == "tbq-cut" {
					oracleCheck(t, name, e, ds.Library, q.Graph, mode.opts(), got)
				} else {
					assertTopKEquivalent(t, name, got, want)
					if got.Approximate || want.Approximate {
						t.Errorf("%s: a run that cannot be cut was flagged approximate", name)
					}
				}
				if got.Approximate {
					cuts++
				}
				if len(got.SearchStats) != len(want.SearchStats) {
					t.Errorf("%s: %d search stats, want %d", name, len(got.SearchStats), len(want.SearchStats))
				}
				if subs := len(got.SearchStats); mode.name == "sgq" && got.Collected != nil || mode.name != "sgq" && len(got.Collected) != subs {
					t.Errorf("%s: collected %v for %d sub-queries", name, got.Collected, subs)
				}
				if (got.ShardEffort != nil) != (shape.shards > 0) || shape.shards > 0 && len(got.ShardEffort) != shape.shards {
					t.Errorf("%s: %d shard-effort entries over a %d-shard deployment", name, len(got.ShardEffort), shape.shards)
				}
				checkEventOrdering(t, name, events, got)
				checkEventSkeleton(t, name, events, len(want.SearchStats), shape.shards)
				checkAlert(t, name, events, got)
			}
		}
		if cuts == 0 {
			t.Errorf("%s: the step clock cut no run", shape.name)
		}
	}
}

// checkAlert asserts the alert contract: one alert phase exactly when the
// result is flagged approximate, none otherwise.
func checkAlert(t *testing.T, name string, events []Event, res *Result) {
	t.Helper()
	alerts := 0
	for _, ev := range events {
		if pe, ok := ev.(PhaseEvent); ok && pe.Phase == PhaseAlert {
			alerts++
		}
	}
	if want := map[bool]int{true: 1, false: 0}[res.Approximate]; alerts != want {
		t.Errorf("%s: %d alert phases for approximate = %v, want %d", name, alerts, res.Approximate, want)
	}
}

// checkEventSkeleton asserts the part of the contract checkEventOrdering
// leaves open: the first event opens the search phase; every source that
// reports progress — a (shard, sub-query) pair — closes with exactly one
// Done update, its last, before the assemble phase; and the assemble event
// carries one count per sub-query.
func checkEventSkeleton(t *testing.T, name string, events []Event, subs, shards int) {
	t.Helper()
	if pe, ok := events[0].(PhaseEvent); !ok || pe.Phase != PhaseSearch {
		t.Fatalf("%s: first event %+v, want the search phase", name, events[0])
	}
	type source struct{ shard, sub int }
	done := make(map[source]int)
	assembled, topks := false, 0
	for _, ev := range events {
		switch ev := ev.(type) {
		case ProgressEvent:
			src := source{ev.Shard, ev.Sub}
			if assembled {
				t.Errorf("%s: progress for %+v after the assemble phase", name, src)
			}
			if (shards == 0) != (ev.Shard == 0) || ev.Shard > shards {
				t.Errorf("%s: progress names shard %d of %d", name, ev.Shard, shards)
			}
			if done[src] > 0 {
				t.Errorf("%s: source %+v reported progress after its Done", name, src)
			}
			if ev.Done {
				done[src]++
			} else if _, seen := done[src]; !seen {
				done[src] = 0
			}
		case PhaseEvent:
			if ev.Phase != PhaseAssemble {
				continue
			}
			assembled = true
			if ev.Collected == nil || len(ev.Collected) != subs {
				t.Errorf("%s: assemble phase carries counts %v, want one per %d sub-queries", name, ev.Collected, subs)
			}
		case TopKEvent:
			if !assembled {
				t.Errorf("%s: topk before the assemble phase", name)
			}
			topks++
		}
	}
	if !assembled || topks == 0 {
		t.Errorf("%s: assemble phase seen %v, %d topk events", name, assembled, topks)
	}
	seenSubs := make(map[int]bool)
	for src, n := range done {
		if n != 1 {
			t.Errorf("%s: source %+v reported Done %d times, want exactly once", name, src, n)
		}
		seenSubs[src.sub] = true
	}
	if len(seenSubs) != subs {
		t.Errorf("%s: progress covered %d of %d sub-queries", name, len(seenSubs), subs)
	}
}
