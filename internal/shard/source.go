// The local match source: one sub-query's A* search over the whole graph
// or over one shard, yielding matches in base-graph ids. It is the shard
// half of the scatter-gather seam (see DESIGN.md, "Scatter-gather"): the
// engines in internal/core pull from it directly, and the blueprint
// projection and the local→global remap below are the only places shard
// ids meet base ids.

package shard

import (
	"semkg/internal/astar"
	"semkg/internal/kg"
	"semkg/internal/semgraph"
)

// Projection is one globally-resolved sub-query blueprint mapped into a
// shard's id space: φ anchors and end sets as shard-local ids, the
// first-hop ownership filter, and the weight rows re-indexed by the
// shard's predicate ids. Immutable; every search over it builds fresh
// searcher state (Shard.NewSource).
type Projection struct {
	sub  astar.SubQuery
	rows [][]float64
}

// Project maps a blueprint compiled against the base graph — anchors and
// end sets in base node ids, one weight row per segment indexed by base
// predicate id — into this shard. The shard searches from every
// replicated anchor but only through first-hop nodes it owns
// (astar.SubQuery.FirstHop): matches are at least one edge long, so first
// hops partition the path space exactly — and because anchor fan-out
// spreads over many neighbors, the work balances across shards even when
// φ(anchor) is a single entity.
//
// A nil projection means the shard provably cannot contribute: it
// replicates none of the anchors (every path from an absent anchor starts
// through a hop some other shard owns), or some segment's end set has no
// replica here (any in-halo match would need one).
func (sh *Shard) Project(sub astar.SubQuery, rows [][]float64) *Projection {
	var anchors []kg.NodeID
	for _, a := range sub.Anchors {
		if la, ok := sh.LocalNode(a); ok {
			anchors = append(anchors, la)
		}
	}
	if len(anchors) == 0 {
		return nil
	}
	g := sh.Graph
	endSets := make([]astar.NodeSet, len(sub.EndSets))
	var local []kg.NodeID
	for i := range sub.EndSets {
		local = local[:0]
		for _, id := range sub.EndSets[i].Members() {
			if lid, ok := sh.LocalNode(id); ok {
				local = append(local, lid)
			}
		}
		if len(local) == 0 {
			return nil
		}
		endSets[i] = astar.NewNodeSet(local, g.NumNodes())
	}
	shardRows := make([][]float64, len(rows))
	for seg, row := range rows {
		shardRows[seg] = make([]float64, len(sh.predGlobal))
		for p, bp := range sh.predGlobal {
			shardRows[seg][p] = row[bp]
		}
	}
	return &Projection{
		sub:  astar.SubQuery{Anchors: anchors, EndSets: endSets, FirstHop: sh.Owned},
		rows: shardRows,
	}
}

// remap rewrites a shard-local match into base-graph ids, in place
// (searchers materialize fresh slices per match).
func (sh *Shard) remap(m astar.Match) astar.Match {
	for i, u := range m.Nodes {
		m.Nodes[i] = sh.nodeGlobal[u]
	}
	for i, e := range m.Edges {
		m.Edges[i] = sh.edgeGlobal[e]
	}
	return m
}

// sortedSearch is what a Source pulls from: a private *astar.Searcher,
// or one reader's cursor over a searcher shared between runs.
type sortedSearch interface {
	Next() (astar.Match, bool)
	Stats() astar.Stats
}

// Source is a local match source: one sub-query search whose matches come
// out in base-graph ids, by sorted pull. Not safe for concurrent use;
// every run builds its own.
type Source struct {
	sh   *Shard // nil over the whole graph: ids are already global
	pull sortedSearch
}

// NewSource starts a fresh search of the projected blueprint in this
// shard.
func (sh *Shard) NewSource(p *Projection, opts astar.Options) (*Source, error) {
	w, err := semgraph.NewWeighterFromRows(sh.Graph, p.rows)
	if err != nil {
		return nil, err
	}
	return &Source{sh: sh, pull: astar.NewSearcher(sh.Graph, w, p.sub, opts)}, nil
}

// WholeGraphSource wraps a search over the unpartitioned base graph: a
// private searcher, or one reader's cursor over an enumeration shared
// between runs.
func WholeGraphSource(pull sortedSearch) *Source {
	return &Source{pull: pull}
}

// Next returns the next match in non-increasing pss order.
func (s *Source) Next() (astar.Match, bool) {
	m, ok := s.pull.Next()
	if ok && s.sh != nil {
		m = s.sh.remap(m)
	}
	return m, ok
}

// Restrict passes the assembly's hint (see ta.Restricter) to a private
// whole-graph searcher. A shared enumeration must never be restricted, and
// a shard searcher's ids are local, so both ignore it; the assembly skips
// the unwanted matches they yield.
func (s *Source) Restrict(want func(kg.NodeID) bool) {
	if sr, ok := s.pull.(*astar.Searcher); ok && s.sh == nil {
		sr.Restrict(want)
	}
}

// Stats returns the underlying searcher's effort counters.
func (s *Source) Stats() astar.Stats { return s.pull.Stats() }

// Shard returns the 1-based index of the shard searched, 0 for the whole
// graph.
func (s *Source) Shard() int {
	if s.sh == nil {
		return 0
	}
	return s.sh.Index + 1
}
