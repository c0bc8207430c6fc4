package tbq

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semkg/internal/astar"
	"semkg/internal/kg"
)

// TestCollectConcurrentSharedEstimator is the Collect stress test: many
// searchers collect eagerly in parallel under one shared estimator — the
// shape of every time-bounded run, one Collect per match source — with
// callbacks recording from the concurrent search goroutines, under a
// deterministic StepClock. Run with -race. Asserted invariants, per
// iteration:
//
//   - the alert fires at most once (the CAS in Algorithm 3's estimator),
//     and never when every search exhausted;
//   - per searcher, onNew totals are consecutive (1,2,3,…) — each call
//     reports one newly collected distinct entity;
//   - the returned set's size agrees with the last onNew total.
func TestCollectConcurrentSharedEstimator(t *testing.T) {
	const (
		nSubs = 8
		iters = 10
	)
	g, sw, sub := hubGraph(20, 60)

	for iter := 0; iter < iters; iter++ {
		// A short bound so the alert path trips while several collection
		// goroutines are still running concurrently.
		bound := time.Duration(2+iter) * time.Millisecond
		var alerts atomic.Int32
		est := NewEstimator(context.Background(), Config{
			Bound:      bound,
			Clock:      &StepClock{Step: 20 * time.Microsecond},
			PerMatchTA: time.Microsecond,
		}, func(elapsed, projected time.Duration) {
			if elapsed < 0 || projected <= 0 {
				t.Errorf("iter %d: onAlert(%v, %v) out of range", iter, elapsed, projected)
			}
			alerts.Add(1)
		})

		collected := make([][]int, nSubs) // appended to only by searcher i's goroutine
		sets := make([]map[kg.NodeID]astar.Match, nSubs)
		exhausted := make([]bool, nSubs)
		var wg sync.WaitGroup
		for i := 0; i < nSubs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sr := astar.NewSearcher(g, sw, sub, searchOpts())
				sets[i], exhausted[i] = Collect(sr, est, nil, func(total int) {
					collected[i] = append(collected[i], total)
				})
			}(i)
		}
		wg.Wait()

		if n := alerts.Load(); n > 1 {
			t.Fatalf("iter %d: alert fired %d times, want at most once", iter, n)
		}
		allDry := true
		for s := 0; s < nSubs; s++ {
			allDry = allDry && exhausted[s]
			for i, total := range collected[s] {
				if total != i+1 {
					t.Fatalf("iter %d searcher %d: onNew totals %v not consecutive", iter, s, collected[s])
				}
			}
			if len(sets[s]) != len(collected[s]) {
				t.Fatalf("iter %d searcher %d: set size %d != last onNew total %d",
					iter, s, len(sets[s]), len(collected[s]))
			}
		}
		if allDry && alerts.Load() != 0 {
			t.Fatalf("iter %d: exhausted run still alerted", iter)
		}
	}
}

// TestCollectAmpleBoundNoAlert: with a bound the searches cannot consume,
// every searcher exhausts, no alert fires, the callbacks' accounting
// matches the sets, and remap rewrites every match before it is keyed.
func TestCollectAmpleBoundNoAlert(t *testing.T) {
	g, sw, sub := hubGraph(6, 15)
	const nSubs = 4
	var alerts atomic.Int32
	est := NewEstimator(context.Background(), Config{
		Bound:      time.Hour,
		Clock:      &StepClock{Step: 10 * time.Microsecond},
		PerMatchTA: time.Nanosecond,
	}, func(time.Duration, time.Duration) { alerts.Add(1) })

	const shift = 1000 // remap: every node id moves by shift
	remap := func(m astar.Match) astar.Match {
		for i := range m.Nodes {
			m.Nodes[i] += shift
		}
		return m
	}
	var want map[kg.NodeID]astar.Match
	for s := 0; s < nSubs; s++ {
		var last int
		sr := astar.NewSearcher(g, sw, sub, searchOpts())
		set, dry := Collect(sr, est, remap, func(total int) { last = total })
		if !dry {
			t.Fatal("ample bound should exhaust")
		}
		if last != len(set) {
			t.Fatalf("searcher %d: last onNew %d != set size %d", s, last, len(set))
		}
		for end, m := range set {
			if end < shift || m.End() != end {
				t.Fatalf("searcher %d: key %d / end %d not remapped", s, end, m.End())
			}
		}
		if want == nil {
			want = set
		} else if len(set) != len(want) {
			t.Fatalf("searcher %d: %d entities, first searcher %d", s, len(set), len(want))
		}
	}
	if alerts.Load() != 0 {
		t.Fatalf("alert fired %d times on an exhausted run", alerts.Load())
	}
}
