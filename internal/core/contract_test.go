package core

import (
	"context"
	"testing"
	"time"

	"semkg/internal/datagen"
	"semkg/internal/tbq"
)

// TestOneEventContract pins the pipeline's event contract: the same
// generated queries — exact, time-bounded with a budget that never cuts,
// and time-bounded on a step clock that cuts — run as a Stream. An uncut
// run must return the batch Search result (itself judged by the oracle);
// a cut run is judged by the oracle's approximate rule. Every run emits
// the same event skeleton:
//
//	search → per-sub-query progress, exactly one Done each → assemble with
//	per-sub-query counts → at least one topk → result
//
// and alert means "the T·r% cut was taken": at most once, only on a cut
// (a flagged-approximate result), between search and result.
func TestOneEventContract(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 17)
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
	queries := append(append(append([]datagen.GenQuery{}, ds.Simple[:2]...), ds.Medium...), ds.Complex...)[:4]

	cuts := 0
	for _, mode := range modes {
		for _, q := range queries {
			name := mode.name + "/" + q.Name
			want, err := e.Search(ctx, q.Graph, mode.opts())
			if err != nil {
				t.Fatal(err)
			}
			oracleCheck(t, name+"/reference", e, ds.Library, q.Graph, mode.opts(), want)
			st, err := e.Stream(ctx, q.Graph, mode.opts())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			events, got := drainStream(t, st)

			if mode.name == "tbq-cut" {
				oracleCheck(t, name, e, ds.Library, q.Graph, mode.opts(), got)
			} else {
				assertResultsEqual(t, name, got, want)
				if got.Approximate {
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
			checkEventOrdering(t, name, events, got)
			checkEventSkeleton(t, name, events, len(want.SearchStats))
			checkAlert(t, name, events, got)
		}
	}
	if cuts == 0 {
		t.Error("the step clock cut no run")
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
// leaves open: the first event opens the search phase; every sub-query
// that reports progress closes with exactly one Done update, its last,
// before the assemble phase; and the assemble event carries one count per
// sub-query.
func checkEventSkeleton(t *testing.T, name string, events []Event, subs int) {
	t.Helper()
	if pe, ok := events[0].(PhaseEvent); !ok || pe.Phase != PhaseSearch {
		t.Fatalf("%s: first event %+v, want the search phase", name, events[0])
	}
	done := make(map[int]int)
	assembled, topks := false, 0
	for _, ev := range events {
		switch ev := ev.(type) {
		case ProgressEvent:
			src := ev.Sub
			if assembled {
				t.Errorf("%s: progress for sub-query %d after the assemble phase", name, src)
			}
			if done[src] > 0 {
				t.Errorf("%s: sub-query %d reported progress after its Done", name, src)
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
	for src, n := range done {
		if n != 1 {
			t.Errorf("%s: sub-query %d reported Done %d times, want exactly once", name, src, n)
		}
	}
	if len(done) != subs {
		t.Errorf("%s: progress covered %d of %d sub-queries", name, len(done), subs)
	}
}
