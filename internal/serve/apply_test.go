package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"semkg/internal/core"
	"semkg/internal/embed"
	"semkg/internal/kg"
)

// testBuild is the engine factory the apply tests hand to Config.Build:
// it re-derives the test predicate space over the committed graph,
// padding a fixed direction for predicates the "trained" set lacks.
func testBuild() func(*kg.Graph) (*core.Engine, error) {
	vecs := map[string]embed.Vector{
		"assembly":        {1.00, 0.05, 0.02},
		"manufacturer":    {0.95, 0.20, 0.05},
		"country":         {0.90, 0.10, 0.30},
		"locationCountry": {0.90, 0.12, 0.28},
	}
	return func(g *kg.Graph) (*core.Engine, error) {
		names := g.Predicates()
		ordered := make([]embed.Vector, len(names))
		for i, n := range names {
			if v, ok := vecs[n]; ok {
				ordered[i] = v
			} else {
				ordered[i] = embed.Vector{0.30, 0.90, 0.30}
			}
		}
		sp, err := embed.NewSpace(names, ordered)
		if err != nil {
			return nil, err
		}
		return core.NewEngine(g, sp, nil)
	}
}

// TestApplyMakesNewEntitiesFindable: the mutation → snapshot-swap →
// invalidation loop end to end — entities committed through Apply answer
// subsequent queries without a restart.
func TestApplyMakesNewEntitiesFindable(t *testing.T) {
	srv := New(testEngine(t), Config{Build: testBuild()})
	ctx := context.Background()

	before, err := srv.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(before.Entities(), "BMW_i8") {
		t.Fatal("BMW_i8 present before ingestion")
	}

	d := srv.NewDelta()
	for _, tr := range [][3]string{
		{"BMW_i8", kg.TypePredicate, "Automobile"},
		{"BMW_i8", "assembly", "Germany"},
	} {
		if err := d.ApplyTriple(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	info, err := srv.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if info.AddedNodes != 1 || info.AddedEdges != 1 {
		t.Fatalf("info = %+v, want 1 node / 1 edge added", info)
	}
	if info.Generation != 1 {
		t.Fatalf("generation = %d, want 1", info.Generation)
	}

	after, err := srv.Search(ctx, q117(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(after.Entities(), "BMW_i8") {
		t.Fatalf("BMW_i8 not findable after Apply: %v", after.Entities())
	}
	st := srv.Stats()
	if st.Applies != 1 || st.Rebuilds != 1 {
		t.Fatalf("stats applies=%d rebuilds=%d, want 1/1", st.Applies, st.Rebuilds)
	}
}

// TestApplyInvalidatesResultCacheExactlyOnce: after Apply publishes a new
// generation, an identical query misses the result cache exactly once and
// is cached again under the new generation.
func TestApplyInvalidatesResultCacheExactlyOnce(t *testing.T) {
	srv := New(testEngine(t), Config{Build: testBuild()})
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := srv.Search(ctx, q117(), testOpts()); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.ResultMisses != 1 || st.ResultHits != 1 || st.PipelineRuns != 1 {
		t.Fatalf("warmup stats: %+v", st)
	}

	d := srv.NewDelta()
	if err := d.ApplyTriple("VW_Golf", "assembly", "Germany"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Apply(d); err != nil {
		t.Fatal(err)
	}

	// First identical query after the swap: exactly one fresh miss and
	// one pipeline run against the new engine.
	if _, err := srv.Search(ctx, q117(), testOpts()); err != nil {
		t.Fatal(err)
	}
	st = srv.Stats()
	if st.ResultMisses != 2 || st.PipelineRuns != 2 {
		t.Fatalf("post-apply first query: misses=%d runs=%d, want 2/2", st.ResultMisses, st.PipelineRuns)
	}
	// Second identical query: served from the repopulated cache.
	if _, err := srv.Search(ctx, q117(), testOpts()); err != nil {
		t.Fatal(err)
	}
	st = srv.Stats()
	if st.ResultHits != 2 || st.PipelineRuns != 2 {
		t.Fatalf("post-apply second query: hits=%d runs=%d, want 2/2", st.ResultHits, st.PipelineRuns)
	}
}

// TestApplyStaleDelta: a delta based on a superseded graph is refused —
// committing it would silently drop the intervening generation's triples.
func TestApplyStaleDelta(t *testing.T) {
	srv := New(testEngine(t), Config{Build: testBuild()})
	d1, d2 := srv.NewDelta(), srv.NewDelta()
	if err := d1.ApplyTriple("A1", "assembly", "Germany"); err != nil {
		t.Fatal(err)
	}
	if err := d2.ApplyTriple("A2", "assembly", "Germany"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Apply(d1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Apply(d2); !errors.Is(err, ErrStaleDelta) {
		t.Fatalf("err = %v, want ErrStaleDelta", err)
	}
}

// TestApplyEmptyDelta: a no-op delta reports state without bumping the
// generation or purging caches.
func TestApplyEmptyDelta(t *testing.T) {
	srv := New(testEngine(t), Config{Build: testBuild()})
	if _, err := srv.Search(context.Background(), q117(), testOpts()); err != nil {
		t.Fatal(err)
	}
	info, err := srv.Apply(srv.NewDelta())
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 0 {
		t.Fatalf("empty apply bumped generation to %d", info.Generation)
	}
	st := srv.Stats()
	if st.Rebuilds != 0 || st.ResultEntries != 1 {
		t.Fatalf("empty apply purged state: %+v", st)
	}
}

// TestApplyRequiresBuilder: without Config.Build there is no way to turn
// a committed graph into an engine.
func TestApplyRequiresBuilder(t *testing.T) {
	srv := New(testEngine(t), Config{})
	if _, err := srv.Apply(srv.NewDelta()); err == nil {
		t.Fatal("Apply without Config.Build accepted")
	}
}

// TestApplyConcurrentWithSearches is the concurrency regression of the
// storage rework: streams running against generation N while Apply
// publishes N+1 complete without error (against the generation they
// started on), under the race detector. Each client's observed answer
// count is non-decreasing — generations only ever add entities here, so a
// later search can never see fewer answers than an earlier one.
func TestApplyConcurrentWithSearches(t *testing.T) {
	srv := New(testEngine(t), Config{Build: testBuild(), Queue: 64})
	ctx := context.Background()
	const (
		clients   = 4
		perClient = 25
		applies   = 8
	)

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := -1
			for i := 0; i < perClient; i++ {
				st, err := srv.Stream(ctx, q117(), testOpts())
				if err != nil {
					errs[c] = err
					return
				}
				for range st.Events() {
				}
				res, err := st.Result()
				if err != nil {
					errs[c] = err
					return
				}
				if res == nil {
					errs[c] = fmt.Errorf("stream %d/%d: nil result", c, i)
					return
				}
				if n := len(res.Answers); n < prev {
					errs[c] = fmt.Errorf("stream %d/%d: answers went from %d to %d", c, i, prev, n)
					return
				} else {
					prev = n
				}
			}
		}(c)
	}

	for a := 0; a < applies; a++ {
		d := srv.NewDelta()
		if err := d.ApplyTriple(fmt.Sprintf("NewAuto_%d", a), kg.TypePredicate, "Automobile"); err != nil {
			t.Fatal(err)
		}
		if err := d.ApplyTriple(fmt.Sprintf("NewAuto_%d", a), "assembly", "Germany"); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	if n := srv.Generation(); n != applies {
		t.Fatalf("generation = %d, want %d", n, applies)
	}
	// The final engine serves every ingested auto (K large enough to
	// hold the base answers plus all ingested ones).
	opts := testOpts()
	opts.K = 4 + 2*applies
	res, err := srv.Search(ctx, q117(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < applies; a++ {
		if !slices.Contains(res.Entities(), fmt.Sprintf("NewAuto_%d", a)) {
			t.Fatalf("NewAuto_%d missing from final results: %v", a, res.Entities())
		}
	}
}
