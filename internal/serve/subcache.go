// Sub-query sharing: the serving-layer cache of shared A* enumerations.
// The result cache and singleflight dedup only byte-identical requests;
// real traffic overlaps partially — different K over one decomposition,
// distinct queries whose decompositions share a sub-query path. The
// compile/run split makes that overlap addressable: core.Plan exposes a
// stable hash of each sub-query's compile inputs (Plan.SubqueryKey, which
// costs the sub-query, not its φ sets), and the sorted enumeration they
// compile to is deterministic within one engine, so one
// memoized search (core.SharedSearch) can feed every concurrent and
// future run that shares the blueprint — exact or time-bounded alike,
// since a time-bounded run reads the same sorted stream and its deadline
// refuses pulls above the shared source.
//
// Keying and invalidation: entries are keyed by that hash alone, which
// names no graph, so the cache belongs to one engine generation, like the
// result cache: Rebuild retires it whole and a racing leader can only insert into a
// cache no new request reaches. Entry bodies build lazily under a
// sync.Once so the cache critical section stays O(1) and concurrent misses
// on one blueprint share a single search — the sub-query-level
// singleflight.
//
// Sharing is invisible by construction (same match sequence, same TA
// assembly) and gated to deterministic requests; anything else — random
// pivot, test hooks — takes the private path. See DESIGN.md, "Cross-query
// sharing and batch execution".

package serve

import (
	"context"
	"sync"

	"semkg/internal/core"
)

// subEntry is one cached shared sub-search. The search builds lazily on
// first use: GetOrAdd inserts the empty entry under the cache mutex, and
// the winner of the Once builds the searcher outside it, so a slow
// weight-row materialization never blocks unrelated cache traffic.
// Build errors are shared too — every consumer of a failed entry falls
// back to the private path rather than rebuilding.
type subEntry struct {
	once sync.Once
	src  *core.SharedSearch
	err  error
}

// sharing reports whether the sub-search cache is enabled.
func (e *Engine) sharing() bool { return e.cfg.SubCache > 0 }

// searchFor runs the pipeline for one admitted request to its end, through
// the sub-query sharing layer when the request qualifies (see
// subSourcesFor).
func (e *Engine) searchFor(ctx context.Context, g *generation, plan *core.Plan, opts core.Options, shareable bool) (*core.Result, error) {
	if sources := e.subSourcesFor(g, plan, shareable); sources != nil {
		return g.eng.SearchPlanShared(ctx, plan, opts, sources)
	}
	return g.eng.SearchPlan(ctx, plan, opts)
}

// streamFor is searchFor's live form: it starts the pipeline as an event
// stream.
func (e *Engine) streamFor(ctx context.Context, g *generation, plan *core.Plan, opts core.Options, shareable bool) (*core.Stream, error) {
	if sources := e.subSourcesFor(g, plan, shareable); sources != nil {
		return g.eng.StreamPlanShared(ctx, plan, opts, sources)
	}
	return g.eng.StreamPlan(ctx, plan, opts)
}

// subSourcesFor resolves, in g's sub-search cache, one shared enumeration
// per sub-query blueprint of plan when the request qualifies for sharing:
// deterministic (shareable == cacheable) and a fully compiled plan. Missing entries are created (a miss per blueprint,
// counted once) and existing ones joined. It returns nil sources — the
// private path — when the request does not qualify or any entry failed to
// build: sharing is an optimization, never a new way to fail a request.
func (e *Engine) subSourcesFor(g *generation, plan *core.Plan, shareable bool) []*core.SharedSearch {
	if !shareable || !e.sharing() || !plan.Compiled() {
		return nil
	}
	n := plan.Subqueries()
	sources := make([]*core.SharedSearch, n)
	for i := 0; i < n; i++ {
		entry, created := g.subs.GetOrAdd(plan.SubqueryKey(i), &subEntry{})
		if created {
			e.stats.subMisses.Add(1)
		} else {
			e.stats.subHits.Add(1)
		}
		sub := i
		entry.once.Do(func() {
			entry.src, entry.err = g.eng.NewSubSearch(plan, sub)
		})
		if entry.err != nil || entry.src == nil {
			return nil
		}
		sources[i] = entry.src
	}
	return sources
}
