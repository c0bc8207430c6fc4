package tbq

import (
	"context"
	"sync"
	"testing"
	"time"

	"semkg/internal/astar"
	"semkg/internal/kg"
)

// TestCollectConcurrentSharedEstimator is the Collect stress test: many
// searchers collect eagerly in parallel under one shared estimator — the
// shape of Run, one Collect per sub-query — under a deterministic
// StepClock. Run with -race. Asserted invariants, per iteration:
//
//   - the estimator stops every search once it says stop, and never
//     says stop when every search exhausted;
//   - the estimator counted exactly the distinct entities the sets hold,
//     each set keyed by its matches' end entities.
func TestCollectConcurrentSharedEstimator(t *testing.T) {
	const (
		nSubs = 8
		iters = 10
	)
	g, sw, sub := hubGraph(20, 60)

	for iter := 0; iter < iters; iter++ {
		// A short bound so the stop trips while several collection
		// goroutines are still running concurrently.
		bound := time.Duration(2+iter) * time.Millisecond
		est := NewEstimator(context.Background(), Config{
			Bound:      bound,
			Clock:      &StepClock{Step: 20 * time.Microsecond},
			PerMatchTA: time.Microsecond,
		})

		sets := make([]map[kg.NodeID]astar.Match, nSubs)
		exhausted := make([]bool, nSubs)
		var wg sync.WaitGroup
		for i := 0; i < nSubs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sr := astar.NewSearcher(g, sw, sub, searchOpts())
				sets[i], exhausted[i] = Collect(sr, est)
			}(i)
		}
		wg.Wait()

		allDry, total := true, 0
		for s := 0; s < nSubs; s++ {
			allDry = allDry && exhausted[s]
			total += len(sets[s])
			for end, m := range sets[s] {
				if m.End() != end {
					t.Fatalf("iter %d searcher %d: match ending at %d keyed by %d", iter, s, m.End(), end)
				}
			}
		}
		if got := est.total.Load(); got != int64(total) {
			t.Fatalf("iter %d: estimator counted %d matches, the sets hold %d", iter, got, total)
		}
		if stopped := est.stopped.Load(); allDry == stopped {
			t.Fatalf("iter %d: estimator stopped %v, every search exhausted %v", iter, stopped, allDry)
		}
	}
}

// TestCollectAmpleBoundNoAlert: with a bound the searches cannot consume,
// every searcher exhausts, the estimator never says stop, and identical
// searches collect identical entity sets.
func TestCollectAmpleBoundNoAlert(t *testing.T) {
	g, sw, sub := hubGraph(6, 15)
	const nSubs = 4
	est := NewEstimator(context.Background(), Config{
		Bound:      time.Hour,
		Clock:      &StepClock{Step: 10 * time.Microsecond},
		PerMatchTA: time.Nanosecond,
	})

	var want map[kg.NodeID]astar.Match
	for s := 0; s < nSubs; s++ {
		sr := astar.NewSearcher(g, sw, sub, searchOpts())
		set, dry := Collect(sr, est)
		if !dry {
			t.Fatal("ample bound should exhaust")
		}
		if want == nil {
			want = set
			continue
		}
		if len(set) != len(want) {
			t.Fatalf("searcher %d: %d entities, first searcher %d", s, len(set), len(want))
		}
		for end, m := range set {
			if w, ok := want[end]; !ok || w.PSS != m.PSS {
				t.Fatalf("searcher %d: entity %d at pss %v, first searcher %+v", s, end, m.PSS, w)
			}
		}
	}
	if est.stopped.Load() {
		t.Fatal("the estimator said stop on an exhausted run")
	}
}
