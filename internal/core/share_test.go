package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"semkg/internal/astar"
	"semkg/internal/datagen"
	"semkg/internal/ta"
	"semkg/internal/tbq"
)

// sharedSourcesFor builds one SharedSearch per sub-query of p.
func sharedSourcesFor(t *testing.T, e *Engine, p *Plan) []*SharedSearch {
	t.Helper()
	sources := make([]*SharedSearch, p.Subqueries())
	for i := range sources {
		ss, err := e.NewSubSearch(p, i)
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = ss
	}
	return sources
}

// TestSearchPlanSharedEquivalence: a plan run through shared sub-query
// enumerations — repeatedly, and under different runtime K — returns
// answers field-identical to the private-searcher run. This is the core
// invisibility property the serving layer's sub-cache depends on.
func TestSearchPlanSharedEquivalence(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	q := q117("assembly")
	opts := Options{K: 10, Tau: 0.6}

	p, err := e.Compile(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	sources := sharedSourcesFor(t, e, p)

	for _, k := range []int{1, 2, 3, 10} {
		o := opts
		o.K = k
		want, err := e.SearchPlan(ctx, p, o)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			got, err := e.SearchPlanShared(ctx, p, o, sources)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Answers, want.Answers) {
				t.Fatalf("K=%d run %d: shared answers differ:\n%v\nvs\n%v",
					k, run, got.Answers, want.Answers)
			}
		}
	}

	// The shared enumerations did the A* work; their stats are reported.
	res, err := e.SearchPlanShared(ctx, p, opts, sources)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SearchStats) != p.Subqueries() {
		t.Fatalf("SearchStats: got %d entries, want %d", len(res.SearchStats), p.Subqueries())
	}
	for i, st := range res.SearchStats {
		if st.Emitted == 0 {
			t.Errorf("sub %d: shared stats report no emitted matches", i)
		}
	}
}

// TestStreamPlanSharedEvents: the shared run's event stream carries the
// same terminal ranking and bounds as the private run.
func TestStreamPlanSharedEvents(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	q := q117("assembly")
	opts := Options{K: 4, Tau: 0.6}

	p, err := e.Compile(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	sources := sharedSourcesFor(t, e, p)

	closing := func(s *Stream) (TopKEvent, *Result) {
		t.Helper()
		var last TopKEvent
		var res *Result
		for ev := range s.Events() {
			switch v := ev.(type) {
			case TopKEvent:
				last = v
			case ResultEvent:
				res = v.Result
			}
		}
		return last, res
	}

	sPriv, err := e.StreamPlan(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantTop, wantRes := closing(sPriv)

	sShared, err := e.StreamPlanShared(ctx, p, opts, sources)
	if err != nil {
		t.Fatal(err)
	}
	gotTop, gotRes := closing(sShared)

	if !reflect.DeepEqual(gotRes.Answers, wantRes.Answers) {
		t.Fatalf("shared stream answers differ:\n%v\nvs\n%v", gotRes.Answers, wantRes.Answers)
	}
	if gotTop.LowerK != wantTop.LowerK || gotTop.UpperMax != wantTop.UpperMax {
		t.Fatalf("closing bounds differ: shared (%g, %g) vs private (%g, %g)",
			gotTop.LowerK, gotTop.UpperMax, wantTop.LowerK, wantTop.UpperMax)
	}
	if !reflect.DeepEqual(gotTop.Answers, wantTop.Answers) {
		t.Fatalf("closing top-k differs:\n%v\nvs\n%v", gotTop.Answers, wantTop.Answers)
	}
}

// topKEvents drains a stream and returns its TopKEvents in order.
func topKEvents(t *testing.T, s *Stream) []TopKEvent {
	t.Helper()
	var out []TopKEvent
	for ev := range s.Events() {
		if v, ok := ev.(TopKEvent); ok {
			out = append(out, v)
		}
	}
	return out
}

// TestRestrictedRunMatchesSharedEvents: once a stream runs dry the
// assembly restricts the private searchers of a StreamPlan run, while the
// shared cursors of a StreamPlanShared run are never restricted — yet the
// two runs emit the identical TopKEvent sequence (every provisional
// ranking, bound and round) and the identical result, exact or under an
// ample time bound. Afterwards a fresh cursor over each shared
// enumeration still yields the unrestricted private sequence.
func TestRestrictedRunMatchesSharedEvents(t *testing.T) {
	ctx := context.Background()
	restricted := 0
	for _, seed := range []int64{3, 17, 42} {
		ds, e := tinyWorld(t, seed)
		for _, q := range append(append([]datagen.GenQuery{}, ds.Medium...), ds.Complex...) {
			for _, opts := range []Options{
				{K: 5, Tau: 0.5, MaxHops: 3},
				{K: 20, Tau: 0.5, MaxHops: 3, TimeBound: time.Minute},
			} {
				name := fmt.Sprintf("seed %d %s K=%d bound=%v", seed, q.Name, opts.K, opts.TimeBound)
				p, err := e.Compile(q.Graph, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if p.Subqueries() < 2 {
					continue
				}
				sPriv, err := e.StreamPlan(ctx, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := topKEvents(t, sPriv)
				sources := sharedSourcesFor(t, e, p)
				sShared, err := e.StreamPlanShared(ctx, p, opts, sources)
				if err != nil {
					t.Fatal(err)
				}
				got := topKEvents(t, sShared)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: shared run's TopKEvents differ from the private run's:\n%+v\nvs\n%+v", name, got, want)
				}
				privRes, sharedRes := sPriv.Result(), sShared.Result()
				if !reflect.DeepEqual(sharedRes.Answers, privRes.Answers) || sharedRes.Approximate || privRes.Approximate {
					t.Fatalf("%s: results differ", name)
				}
				for i, st := range privRes.SearchStats {
					if st.Emitted < sharedRes.SearchStats[i].Emitted {
						restricted++ // the private searcher skipped unwanted matches
					}
				}
				for i, ss := range sources {
					priv, err := e.subSearcher(p, i)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(drainCursor(ss.Cursor()), drainCursor(priv)) {
						t.Fatalf("%s: sub %d: a fresh cursor no longer yields the private sequence", name, i)
					}
				}
			}
		}
	}
	if restricted == 0 {
		t.Fatal("weak inputs: no private searcher was ever restricted")
	}
}

// TestSharedSearchConcurrentCursors: many cursors racing over one shared
// enumeration each observe the exact sequence a private searcher yields.
// Run under -race this also checks the extension locking.
func TestSharedSearchConcurrentCursors(t *testing.T) {
	e := newTestEngine(t)
	q := q117("assembly")
	p, err := e.Compile(q, Options{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}

	// Reference sequence from a private searcher.
	priv, err := e.subSearcher(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []astar.Match
	for {
		m, ok := priv.Next()
		if !ok {
			break
		}
		want = append(want, m)
	}
	if len(want) == 0 {
		t.Fatal("reference enumeration is empty")
	}

	ss, err := e.NewSubSearch(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	got := make([][]astar.Match, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cur := ss.Cursor()
			for {
				m, ok := cur.Next()
				if !ok {
					return
				}
				got[r] = append(got[r], m)
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < readers; r++ {
		if !reflect.DeepEqual(got[r], want) {
			t.Fatalf("reader %d: shared sequence differs from private enumeration", r)
		}
	}
	if ss.Memoized() != len(want) {
		t.Fatalf("memoized %d matches, want %d", ss.Memoized(), len(want))
	}
}

// TestSharedSearchPartialConsumerLeavesPrefix: a consumer that abandons
// the enumeration early does not disturb later consumers — the memoized
// prefix keeps serving the identical sequence (the cancellation-safety
// behind satellite "a leaver never cancels a sub-flight others need").
func TestSharedSearchPartialConsumerLeavesPrefix(t *testing.T) {
	e := newTestEngine(t)
	p, err := e.Compile(q117("assembly"), Options{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := e.NewSubSearch(p, 0)
	if err != nil {
		t.Fatal(err)
	}

	// First consumer reads two matches and walks away.
	cur := ss.Cursor()
	for i := 0; i < 2; i++ {
		if _, ok := cur.Next(); !ok {
			t.Fatalf("enumeration ended before match %d", i)
		}
	}
	memo := ss.Memoized()

	// Second consumer still sees the full reference sequence.
	priv, err := e.subSearcher(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	cur2 := ss.Cursor()
	n := 0
	for {
		wm, wok := priv.Next()
		gm, gok := cur2.Next()
		if wok != gok {
			t.Fatalf("match %d: shared ok=%v, private ok=%v", n, gok, wok)
		}
		if !wok {
			break
		}
		if !reflect.DeepEqual(gm, wm) {
			t.Fatalf("match %d differs after partial consumer", n)
		}
		n++
	}
	if n < memo {
		t.Fatalf("full read yielded %d matches, fewer than the %d memoized", n, memo)
	}
}

// drainCursor reads a match stream to its end.
func drainCursor(cur ta.Stream) []astar.Match {
	var out []astar.Match
	for m, ok := cur.Next(); ok; m, ok = cur.Next() {
		out = append(out, m)
	}
	return out
}

// TestSharedSearchReleasesExhaustedSearcher: once the enumeration runs dry
// the searcher (arena and frontier) is dropped — a sub-cache
// entry pins the SharedSearch for a whole generation — while its effort
// counters, the memoized count and every cursor's sequence stay what they
// were. Two cursors race to the end, so -race covers the release.
func TestSharedSearchReleasesExhaustedSearcher(t *testing.T) {
	e := newTestEngine(t)
	p, err := e.Compile(q117("assembly"), Options{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	priv, err := e.subSearcher(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := drainCursor(priv)
	if len(want) < 2 {
		t.Fatalf("reference enumeration has %d matches, want several", len(want))
	}

	ss, err := e.NewSubSearch(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	early := ss.Cursor() // reads one match now, the rest after the release
	if m, ok := early.Next(); !ok || !reflect.DeepEqual(m, want[0]) {
		t.Fatalf("first shared match = %+v, %v", m, ok)
	}
	if ss.sr == nil {
		t.Fatal("searcher released while the enumeration can still extend")
	}

	racing := make([][]astar.Match, 2)
	var wg sync.WaitGroup
	for r := range racing {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cur := ss.Cursor()
			for m, ok := cur.Next(); ok; m, ok = cur.Next() {
				racing[r] = append(racing[r], m)
				ss.SearchStats() // readers of the counters race the release too
			}
		}(r)
	}
	wg.Wait()

	if ss.sr != nil {
		t.Error("exhausted enumeration still holds its searcher")
	}
	if st := ss.SearchStats(); st != priv.Stats() {
		t.Errorf("stats after release = %+v, a private searcher's final stats are %+v", st, priv.Stats())
	}
	if ss.Memoized() != len(want) {
		t.Errorf("memoized %d matches after release, want %d", ss.Memoized(), len(want))
	}
	resumed := append([]astar.Match{want[0]}, drainCursor(early)...)
	for name, seq := range map[string][]astar.Match{
		"racing cursor 0": racing[0], "racing cursor 1": racing[1],
		"cursor resumed after the release": resumed, "cursor opened after the release": drainCursor(ss.Cursor()),
	} {
		if !reflect.DeepEqual(seq, want) {
			t.Errorf("%s: sequence differs from the private enumeration", name)
		}
	}
}

// TestSubqueryKeyStability: recompiling the same query yields identical
// keys; changing the query shape or a search-relevant option changes them.
func TestSubqueryKeyStability(t *testing.T) {
	e := newTestEngine(t)
	opts := Options{Tau: 0.6}
	p1, err := e.Compile(q117("assembly"), opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Compile(q117("assembly"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Subqueries() != p2.Subqueries() {
		t.Fatalf("sub-query counts differ: %d vs %d", p1.Subqueries(), p2.Subqueries())
	}
	for i := 0; i < p1.Subqueries(); i++ {
		if p1.SubqueryKey(i) != p2.SubqueryKey(i) {
			t.Errorf("sub %d: key unstable across identical compiles", i)
		}
	}

	// φ is a set: the same ids given in another order and with repeats
	// compile to the same end sets and the same key.
	shuffled := &Plan{eng: e, d: p1.d, compiled: true, copts: p1.copts}
	for _, ps := range p1.subs {
		ends := make([]astar.NodeSet, len(ps.sub.EndSets))
		for seg, set := range ps.sub.EndSets {
			ids := slices.Clone(set.Members())
			slices.Reverse(ids)
			ids = append(ids, ids[len(ids)/2], ids[0])
			ends[seg] = astar.NewNodeSet(ids, e.g.NumNodes())
		}
		ps.sub.EndSets = ends
		shuffled.subs = append(shuffled.subs, ps)
	}
	for i := 0; i < p1.Subqueries(); i++ {
		if p1.SubqueryKey(i) != shuffled.SubqueryKey(i) {
			t.Errorf("sub %d: reordered, repeated φ changed the key", i)
		}
	}

	// A different predicate changes the blueprint and the key.
	p3, err := e.Compile(q117("manufacturer"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if p1.SubqueryKey(0) == p3.SubqueryKey(0) {
		t.Error("different predicates share a sub-query key")
	}

	// A different tau changes the enumeration (pruning) and the key.
	p4, err := e.Compile(q117("assembly"), Options{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if p1.SubqueryKey(0) == p4.SubqueryKey(0) {
		t.Error("different tau shares a sub-query key")
	}

	// K is runtime-only: it must not influence the key.
	p5, err := e.Compile(q117("assembly"), Options{Tau: 0.6, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p1.SubqueryKey(0) != p5.SubqueryKey(0) {
		t.Error("runtime K changed the sub-query key")
	}
}

// TestSharedTimeBoundedCut: a time-bounded run cut on a StepClock over
// shared sub-searches answers under the oracle's approximate rule — the
// deadline refuses pulls above the shared source, never inside it — and a
// second cut run over the now partly memoized sources does too.
func TestSharedTimeBoundedCut(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 8)
	cut, runs := 0, 0
	for _, q := range ds.Simple {
		for _, bound := range []time.Duration{40 * time.Microsecond, 100 * time.Microsecond, 200 * time.Microsecond} {
			opts := Options{K: 5, Tau: 0.5, MaxHops: 3, TimeBound: bound}
			p, err := e.Compile(q.Graph, opts)
			if err != nil {
				t.Fatal(err)
			}
			sources := sharedSourcesFor(t, e, p)
			for run := 0; run < 2; run++ {
				opts.Clock = &tbq.StepClock{Step: 10 * time.Microsecond}
				res, err := e.SearchPlanShared(ctx, p, opts, sources)
				if err != nil {
					t.Fatal(err)
				}
				oracleCheck(t, fmt.Sprintf("%s/%v/run%d", q.Name, bound, run), e, ds.Library, q.Graph, opts, res)
				runs++
				if res.Approximate {
					cut++
				}
			}
		}
	}
	t.Logf("%d of %d shared runs cut", cut, runs)
	if cut == 0 {
		t.Fatal("no shared run was cut; the test needs a tighter bound")
	}
}

// TestSharedTimeBoundedAmple: under an ample bound a shared run is the
// exact run — the SGQ answers, unflagged — whether its sources are fresh
// or already memoized by an exact run.
func TestSharedTimeBoundedAmple(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	exact := Options{K: 10, Tau: 0.6}
	p, err := e.Compile(q117("assembly"), exact)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.SearchPlan(ctx, p, exact)
	if err != nil {
		t.Fatal(err)
	}
	sources := sharedSourcesFor(t, e, p)
	ample := exact
	ample.TimeBound = time.Hour
	for _, run := range []struct {
		name string
		opts Options
	}{{"fresh", ample}, {"exact", exact}, {"memoized", ample}} {
		got, err := e.SearchPlanShared(ctx, p, run.opts, sources)
		if err != nil {
			t.Fatal(err)
		}
		if got.Approximate || !reflect.DeepEqual(got.Answers, want.Answers) {
			t.Fatalf("%s: shared run (approximate %v) differs from the SGQ run:\n%v\nvs\n%v",
				run.name, got.Approximate, got.Answers, want.Answers)
		}
	}
}

// TestSharedRejections: the sharing entry points reject source-count
// mismatches and foreign plans.
func TestSharedRejections(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	p, err := e.Compile(q117("assembly"), Options{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	sources := sharedSourcesFor(t, e, p)

	if _, err := e.SearchPlanShared(ctx, p, Options{Tau: 0.6}, sources[:1]); err == nil && p.Subqueries() != 1 {
		t.Fatal("source-count mismatch accepted")
	}

	other := newTestEngine(t)
	if _, err := other.SearchPlanShared(ctx, p, Options{Tau: 0.6}, sources); err == nil {
		t.Fatal("foreign plan accepted by shared run")
	}
	if _, err := other.NewSubSearch(p, 0); err == nil {
		t.Fatal("foreign plan accepted by NewSubSearch")
	}
	if _, err := e.NewSubSearch(p, p.Subqueries()); err == nil {
		t.Fatal("out-of-range sub-query index accepted")
	}
}
