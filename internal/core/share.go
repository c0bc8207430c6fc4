// Cross-query execution sharing: the sub-query-level counterpart of the
// compile/run split. A compiled plan's sub-query blueprints are immutable
// and keyed by what compiled them (Plan.SubqueryKey: the path's node
// names and types, its predicates and the search options), and the A*
// enumeration over a blueprint is deterministic — so when concurrent
// plans share a key, one enumeration can feed all of them.
// SharedSearch memoizes such an enumeration behind a mutex: each consumer
// reads through the memoized prefix with its own cursor and extends the
// prefix on demand, which makes the in-flight case (two runs pulling at
// once) a singleflight for free — the second puller waits on the mutex
// and then reads the match the first one just computed.
//
// Both modes share: a time-bounded run reads the same sorted stream as an
// exact one, and its deadline refuses pulls above the source (in the
// run's resumeStream), never inside the shared enumeration. The sharing
// layer above (internal/serve) keeps its entries per engine generation.
//
// See DESIGN.md, "Cross-query sharing and batch execution".

package core

import (
	"context"
	"fmt"
	"sync"

	"semkg/internal/astar"
	"semkg/internal/ta"
)

// SharedSearch memoizes one sub-query A* enumeration so any number of
// concurrent pipeline runs can consume it. The enumeration extends
// on demand: a cursor reading past the memoized prefix computes the next
// match under the lock and appends it, so every cursor observes the
// identical sequence a private searcher would have produced, regardless
// of how many runs share the search or how they interleave. A consumer
// that stops pulling (context cancellation, early TA termination) simply
// leaves the prefix where it is — there is no partial state to unwind,
// and the memoized matches keep serving other consumers. Once the
// enumeration runs dry the searcher — arena and frontier — is
// released: nothing can pull from it again, and a sub-cache entry would
// otherwise pin it for the generation.
type SharedSearch struct {
	mu      sync.Mutex
	sr      *astar.Searcher // nil once exhausted
	stats   astar.Stats     // sr's final counters, kept past its release
	matches []astar.Match
}

// NewSharedSearch wraps a freshly built searcher for shared consumption.
// The searcher must not be used directly afterwards.
func NewSharedSearch(sr *astar.Searcher) *SharedSearch {
	return &SharedSearch{sr: sr}
}

// at returns the i-th match of the enumeration, extending it as needed.
func (s *SharedSearch) at(i int) (astar.Match, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.matches) <= i && s.sr != nil {
		m, ok := s.sr.Next()
		if !ok {
			s.stats, s.sr = s.sr.Stats(), nil
			break
		}
		s.matches = append(s.matches, m)
	}
	if i < len(s.matches) {
		return s.matches[i], true
	}
	return astar.Match{}, false
}

// Cursor returns a new independent reader positioned at the start of the
// shared enumeration. Cursors are not safe for concurrent use
// individually, but any number of cursors may be read concurrently.
func (s *SharedSearch) Cursor() ta.Stream { return &sharedCursor{s: s} }

// SearchStats snapshots the underlying searcher's counters. They
// aggregate the whole shared enumeration so far, which may exceed the
// effort any single consumer needed.
func (s *SharedSearch) SearchStats() astar.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sr == nil {
		return s.stats
	}
	return s.sr.Stats()
}

// Memoized reports how many matches the enumeration has materialized.
func (s *SharedSearch) Memoized() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.matches)
}

// sharedCursor is one consumer's position in a SharedSearch. It has no
// Restrict method on purpose: the enumeration it reads is shared, so one
// run's restriction hint (ta.Restricter) must never reach it.
type sharedCursor struct {
	s   *SharedSearch
	pos int
}

// Next returns the next match of the shared enumeration.
func (c *sharedCursor) Next() (astar.Match, bool) {
	m, ok := c.s.at(c.pos)
	if ok {
		c.pos++
	}
	return m, ok
}

// Stats reports the shared enumeration's effort counters, so a cursor is
// a run's match source (matchSource) as it stands.
func (c *sharedCursor) Stats() astar.Stats { return c.s.SearchStats() }

// NewSubSearch builds a fresh searcher for the i-th sub-query blueprint
// of p and wraps it for shared consumption. The plan must come from this
// engine's Compile.
func (e *Engine) NewSubSearch(p *Plan, i int) (*SharedSearch, error) {
	sr, err := e.Searcher(p, i)
	if err != nil {
		return nil, err
	}
	return NewSharedSearch(sr), nil
}

// Searcher builds a fresh whole-graph A* searcher for the i-th sub-query
// blueprint of p, for callers that drive the search themselves (the
// Algorithm 2-3 reproduction in internal/bench). The plan must come from
// this engine's Compile.
func (e *Engine) Searcher(p *Plan, i int) (*astar.Searcher, error) {
	if p == nil || p.eng != e {
		return nil, fmt.Errorf("core: plan was not compiled by this engine")
	}
	if !p.compiled || i < 0 || i >= len(p.subs) {
		return nil, fmt.Errorf("core: no sub-query %d", i)
	}
	return e.subSearcher(p, i)
}

// StreamPlanShared is StreamPlan with per-sub-query match sources
// substituted for fresh searchers: sources[i], when non-nil, supplies
// sub-query i's sorted match stream through a shared enumeration; a nil
// entry gets a private searcher exactly as in StreamPlan. len(sources)
// must equal p.Subqueries(); for a non-compiled plan pass nil. A
// time-bounded run shares too: its deadline cuts the run's own reads, and
// a cut consumer leaves the memoized prefix to the others.
//
// A shared cursor is just another match source of the pipeline. A run
// with shared sources emits the identical event sequence and terminal
// result (answers, scores, order, TA bounds) as StreamPlan with the same
// arguments; only Result.SearchStats differs, reporting the shared
// enumerations' cumulative effort.
func (e *Engine) StreamPlanShared(ctx context.Context, p *Plan, opts Options, sources []*SharedSearch) (*Stream, error) {
	return e.streamPlan(ctx, p, opts, sources, false)
}

// SearchPlanShared is Search over a pre-compiled plan with shared
// sub-query sources; see StreamPlanShared.
func (e *Engine) SearchPlanShared(ctx context.Context, p *Plan, opts Options, sources []*SharedSearch) (*Result, error) {
	s, err := e.streamPlan(ctx, p, opts, sources, true)
	if err != nil {
		return nil, err
	}
	return s.Result(), nil
}
