// Package merge implements the gather half of the sharded scatter-gather
// pipeline: combining per-shard sub-query match streams into one globally
// sorted stream (see DESIGN.md, "Scatter-gather").
//
// Sorted is demand-driven: it pulls one match ahead per source and yields
// the global maximum, so the TA assembly's L_k >= U_max early termination
// (Theorem 3) propagates straight through to the per-shard searches — a
// shard is asked for its next match only when the bounds actually require
// it, never to fill a fixed-size prefetch. Ties are broken by a total,
// deterministic order (End ascending, then path length, then source
// index), so the merged stream — and everything downstream of it — is
// reproducible regardless of per-shard timing.
//
// All matches entering a merger must already be remapped into one shared
// (base-graph) id space; the merger compares End() ids across sources.
package merge

import (
	"semkg/internal/astar"
	"semkg/internal/kg"
	"semkg/internal/ta"
)

// Source yields matches in non-increasing PSS order, like ta.Stream.
// Per-shard searchers (remapped to base ids) implement it.
type Source = ta.Stream

// before is the merge order: PSS descending, then End ascending, then
// shorter paths first, then lower source index — a total order, so equal
// inputs always merge identically (stable cross-shard tie-break).
func before(a astar.Match, ai int, b astar.Match, bi int) bool {
	if a.PSS != b.PSS {
		return a.PSS > b.PSS
	}
	if ae, be := a.End(), b.End(); ae != be {
		return ae < be
	}
	if la, lb := a.Len(), b.Len(); la != lb {
		return la < lb
	}
	return ai < bi
}

// Merged is a k-way merge of sorted match streams, itself a sorted
// ta.Stream. Not safe for concurrent use.
type Merged struct {
	sources []Source
	heads   []astar.Match
	ok      []bool
	primed  bool
	emitted map[kg.NodeID]bool
}

// Sorted merges the sources into one stream in non-increasing PSS order
// with the deterministic tie-break above, emitting at most one match per
// end node — the best, exactly as a single whole-graph searcher would
// (astar.Searcher.Next dedupes per end entity; with per-shard sources the
// same entity can reach its best score in several shards, and without
// this dedup the duplicates would inflate the TA assembly's rounds).
// Sources are pulled lazily: one look-ahead match each, refilled only
// when the source's head is emitted or superseded.
func Sorted(sources ...Source) *Merged {
	return &Merged{
		sources: sources,
		heads:   make([]astar.Match, len(sources)),
		ok:      make([]bool, len(sources)),
		emitted: make(map[kg.NodeID]bool),
	}
}

// Next returns the globally next-best match for a not-yet-seen end node,
// pulling from whichever source holds it. An exhausted or empty source
// simply stops contributing; Next reports false once every source has run
// dry.
func (m *Merged) Next() (astar.Match, bool) {
	if !m.primed {
		m.primed = true
		for i, src := range m.sources {
			m.heads[i], m.ok[i] = src.Next()
		}
	}
	for {
		best := -1
		for i := range m.sources {
			if !m.ok[i] {
				continue
			}
			if best < 0 || before(m.heads[i], i, m.heads[best], best) {
				best = i
			}
		}
		if best < 0 {
			return astar.Match{}, false
		}
		out := m.heads[best]
		m.heads[best], m.ok[best] = m.sources[best].Next()
		if m.emitted[out.End()] {
			continue // a better match for this entity was already emitted
		}
		m.emitted[out.End()] = true
		return out, true
	}
}
