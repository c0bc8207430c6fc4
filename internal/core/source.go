// Match sources: where a run's matches come from. Every sub-query of a run
// reads one sorted match stream over the whole graph — a private A*
// searcher, or a cursor over an enumeration shared between runs.

package core

import "semkg/internal/astar"

// matchSource is one sub-query search of a run, by sorted pull: a private
// *astar.Searcher or a *sharedCursor. Only the private searcher takes the
// assembly's restriction hint (ta.Restricter); a shared enumeration must
// never be restricted, so sharedCursor has no Restrict method.
type matchSource interface {
	// Next is the sorted pull: the next match in non-increasing pss order.
	Next() (astar.Match, bool)
	// Stats reports the search's A* effort.
	Stats() astar.Stats
}

// openSources instantiates one source per sub-query: a fresh private
// searcher, or — where shared[i] is non-nil — a new cursor over a shared
// enumeration. Weighters and searchers hold per-run mutable state, so
// every run gets its own; the φ sets and weight rows are shared.
func (e *Engine) openSources(p *Plan, shared []*SharedSearch) ([]matchSource, error) {
	sources := make([]matchSource, len(p.subs))
	for i := range p.subs {
		if shared != nil && shared[i] != nil {
			sources[i] = &sharedCursor{s: shared[i]}
			continue
		}
		sr, err := e.subSearcher(p, i)
		if err != nil {
			return nil, err
		}
		sources[i] = sr
	}
	return sources, nil
}
