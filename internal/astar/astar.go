// Package astar implements the paper's A* semantic search (Section V,
// Algorithm 1): best-first top-k path search over the lazily materialized
// semantic graph, guided by the heuristic pss estimation
//
//	ψ̂(u_s..u_i) = (∏ w_j · m(u_i))^(1/n̂)        (Eq. 7)
//
// which upper-bounds the exact path semantic similarity
//
//	ψ(u_s..u_t) = (∏ w_j)^(1/n)                  (Eq. 6)
//
// of every match extending the partial path (Theorem 1), so matches pop off
// the frontier in exact non-increasing pss order (Theorem 2).
//
// Generalization to multi-edge sub-queries: a sub-query graph may contain
// several query edges (segments). The search state tracks the segment being
// matched; reaching a node that matches the segment's end query node closes
// the segment (paths stop at the first such node, mirroring the paper's
// stop-at-target-match semantics). The m(u) bound is a suffix maximum over
// the remaining segments, which keeps the estimate admissible and
// consistent (see internal/semgraph and DESIGN.md).
//
// Hot path: search states live in a flat arena ([]state with int32 parent
// indices) instead of one heap allocation per successor, and the frontier
// is a 4-ary heap of arena indices; φ end sets are compiled once per plan
// (NodeSet) and shared read-only by every searcher, shard projection and
// shared sub-search over it; each match is built in one pass over its
// parent chain; and most τ-pruning decisions skip math.Pow — x^(1/n̂) is
// monotone in x, so a raw weight product below a precomputed (τ^n̂ minus a
// safety margin) floor is certainly pruned without evaluating Eq. 7; only
// successors near the threshold or entering the frontier pay the Pow, so
// the shortcut never changes a decision the exact arithmetic would make. A
// complete state that cannot be the first to pop at its end node — one
// already emitted, unwanted (Restrict), or no better than an earlier push —
// is never pushed (see DESIGN.md, Hot path).
package astar

import (
	"math"
	"slices"

	"semkg/internal/kg"
)

// Weighter supplies semantic edge weights and the m(u) heuristic bound.
// *semgraph.Weighter implements it.
type Weighter interface {
	// Weight returns the semantic weight in (0,1] of graph predicate p for
	// the seg-th query edge of the sub-query.
	Weight(p kg.PredID, seg int) float64
	// NodeMax returns an upper bound on any single edge weight reachable
	// from u while matching query edges seg or later.
	NodeMax(u kg.NodeID, seg int) float64
}

// RowProvider is optionally implemented by Weighters (notably
// *semgraph.Weighter) that can hand out their per-segment weight rows
// directly. NewSearcher then shares the rows in place instead of copying
// NumPredicates×segments values through the interface per search — the
// values are identical, so search arithmetic is unchanged.
type RowProvider interface {
	// Row returns the seg-th weight row, indexed by kg.PredID. The
	// searcher treats it as read-only.
	Row(seg int) []float64
}

// SubQuery is the compiled form of a sub-query path graph: the node-match
// sets φ(v) of its query nodes, resolved by the transformation library.
type SubQuery struct {
	// Anchors is φ(v_s) of the starting specific node.
	Anchors []kg.NodeID
	// EndSets[i] is φ(q_{i+1}) for the query node terminating the i-th
	// query edge; EndSets[len-1] is φ(v_t) of the sub-query's end node.
	// Searchers read them in place.
	EndSets []NodeSet
	// FirstHop, when non-nil, restricts the search to paths whose first
	// edge leads to a node the predicate accepts. Because every match is
	// at least one edge long, first-hop nodes partition the path space
	// exactly: the sharded engine gives each shard the filter "first hop
	// owned here", so the per-shard searches enumerate disjoint path sets
	// whose union is the unrestricted search's. nil accepts every
	// neighbor.
	FirstHop func(kg.NodeID) bool
}

// Segments returns the number of query edges.
func (s SubQuery) Segments() int { return len(s.EndSets) }

// Options configures a search.
type Options struct {
	// Tau is the pss threshold τ (Definition 7); partial paths whose
	// estimate falls below it are pruned (Lemma 3). Default 0.8.
	Tau float64
	// MaxHops is the user-desired path length n̂: matches longer than
	// MaxHops knowledge-graph edges are ignored (Section V-A). Default 4.
	MaxHops int
	// NoHeuristic disables the m(u) factor of the estimate (treats it
	// as 1). The search remains correct but prunes far less — this is the
	// uninformed best-first ablation of the benchmarks.
	NoHeuristic bool
	// PruneVisited enables the paper's visited-set pruning (Algorithm 1,
	// line 6): each (node, segment, hops) state expands at most once.
	// This shrinks the search space considerably but — like the paper's
	// implementation — may miss alternate simple paths that share a state
	// with an earlier, better-weighted path, so per-entity pss can come
	// out below the true optimum. The default (false) enumerates exactly
	// and keeps Theorem 2's global-optimality guarantee unconditional;
	// the hop bound n̂ and τ-pruning keep the space tractable.
	PruneVisited bool
}

func (o Options) withDefaults() Options {
	if o.Tau <= 0 {
		o.Tau = 0.8
	}
	if o.MaxHops <= 0 {
		o.MaxHops = 4
	}
	return o
}

// Match is a sub-query graph match: a path in the knowledge graph together
// with its exact path semantic similarity.
type Match struct {
	// Nodes is the node sequence of the path; Nodes[0] matches the
	// sub-query's anchor and Nodes[len-1] its end (pivot) node.
	Nodes []kg.NodeID
	// Edges are the knowledge-graph edges between consecutive nodes.
	Edges []kg.EdgeID
	// SegEnds[i] is the index into Nodes where the i-th query edge's
	// match ends (the anchor of query node i+1).
	SegEnds []int
	// PSS is the exact path semantic similarity ψ (Eq. 6).
	PSS float64
}

// End returns the node matching the sub-query's end (pivot) query node.
func (m Match) End() kg.NodeID { return m.Nodes[len(m.Nodes)-1] }

// Len returns the number of knowledge-graph edges in the match.
func (m Match) Len() int { return len(m.Edges) }

// state is an arena entry: a partial path positioned at node, currently
// matching query edge seg, having consumed hops graph edges with weight
// product w. parent indexes the arena; noParent for anchors.
type state struct {
	node   kg.NodeID
	via    kg.EdgeID // edge consumed to arrive; -1 for anchors
	parent int32
	seg    int32
	hops   int32
	w      float64
}

const noParent int32 = -1

// emitted marks a done end node in Searcher.best; it exceeds every pss.
const emitted = 2.0

type stateKey struct {
	node kg.NodeID
	seg  int32
	hops int32
}

// bitset is a fixed-capacity node-membership set; one word per 64 nodes.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i kg.NodeID)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i kg.NodeID) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }

// NodeSet is one compiled φ end set. It is immutable, so a plan compiles
// it once and every searcher over the plan — shard projections and shared
// sub-searches included — reads it in place. φ(v) of a typed query node
// can be a large fraction of the graph, but most end sets are a handful of
// entities, and a full-graph bitset means zeroing NumNodes/8 bytes (1.25
// MB at 10M nodes). Small sets therefore probe their sorted members by
// binary search; a set holding more than one node in 256 also gets a
// bitset, whose O(1) probes win there and whose allocation the set's
// construction amortizes.
type NodeSet struct {
	members []kg.NodeID // ascending, no duplicates
	bits    bitset      // nil for sparse sets
}

// NewNodeSet compiles φ's ids, in any order and possibly repeated, for a
// graph of numNodes nodes. ids is not retained.
func NewNodeSet(ids []kg.NodeID, numNodes int) NodeSet {
	members := slices.Clone(ids)
	if !slices.IsSorted(members) {
		slices.Sort(members)
	}
	s := NodeSet{members: slices.Compact(members)}
	if len(s.members) > numNodes/256 {
		s.bits = newBitset(numNodes)
		for _, u := range s.members {
			s.bits.set(u)
		}
	}
	return s
}

// Members returns the set's ids in ascending order. The slice is shared
// and must not be modified.
func (s *NodeSet) Members() []kg.NodeID { return s.members }

func (s *NodeSet) has(u kg.NodeID) bool {
	if s.bits != nil {
		return s.bits.has(u)
	}
	_, ok := slices.BinarySearch(s.members, u)
	return ok
}

// Stats counts search work, for the pruning-effectiveness experiments.
type Stats struct {
	Popped  int // states expanded
	Pushed  int // states entering the frontier
	Pruned  int // expansions dropped by the τ threshold
	Emitted int // matches produced
}

// Searcher runs Algorithm 1 incrementally: each Next call continues the
// search and returns the next-best match by exact pss. The paper's remark
// that "we usually need more than k matches collected for each g_i"
// (Section V-B) is served by simply calling Next again — the threshold
// assembly pulls matches on demand.
//
// A Searcher is not safe for concurrent use.
type Searcher struct {
	g    *kg.Graph
	w    Weighter
	sub  SubQuery
	opts Options

	// rows materializes the per-segment weight rows once — shared in place
	// when the Weighter is a RowProvider — so the expansion inner loop
	// indexes a flat slice instead of calling through the Weighter
	// interface per successor.
	rows [][]float64

	arena    []state
	frontier frontier // capacity persists across Next calls
	closed   map[stateKey]struct{}
	// best is the end-node dedup, one match per answer entity: the highest
	// pss of a complete state pushed at the node, or emitted once the node
	// was emitted or rejected by want.
	best    map[kg.NodeID]float64
	want    func(kg.NodeID) bool // nil, or the Restrict filter
	invRoot float64              // 1/n̂
	// pruneFloor* are conservative raw-product thresholds: a partial
	// state's w·m below pruneFloorPartial (≈ τ^n̂) — or a complete h-hop
	// match's w below pruneFloorComplete[h] (≈ τ^h) — is certainly pruned
	// by the x^(1/n) < τ test, so math.Pow is skipped. The 1e-9 relative
	// margin keeps borderline states on the exact-arithmetic path.
	pruneFloorPartial  float64
	pruneFloorComplete []float64
	stats              Stats
}

// NewSearcher prepares a search for one sub-query graph. The sub-query must
// have at least one segment; anchors or end sets may be empty, in which
// case the search simply yields no matches.
func NewSearcher(g *kg.Graph, w Weighter, sub SubQuery, opts Options) *Searcher {
	opts = opts.withDefaults()
	s := &Searcher{
		g:       g,
		w:       w,
		sub:     sub,
		opts:    opts,
		closed:  make(map[stateKey]struct{}),
		best:    make(map[kg.NodeID]float64),
		invRoot: 1 / float64(opts.MaxHops),
		arena:   make([]state, 0, 64+len(sub.Anchors)),
	}

	const margin = 1 - 1e-9
	s.pruneFloorPartial = math.Pow(opts.Tau, float64(opts.MaxHops)) * margin
	s.pruneFloorComplete = make([]float64, opts.MaxHops+1)
	for h := 1; h <= opts.MaxHops; h++ {
		s.pruneFloorComplete[h] = math.Pow(opts.Tau, float64(h)) * margin
	}

	segs := sub.Segments()
	preds := g.NumPredicates()
	rp, _ := w.(RowProvider)
	s.rows = make([][]float64, segs)
	for seg := 0; seg < segs; seg++ {
		if rp != nil {
			s.rows[seg] = rp.Row(seg)
		} else {
			row := make([]float64, preds)
			for p := 0; p < preds; p++ {
				row[p] = w.Weight(kg.PredID(p), seg)
			}
			s.rows[seg] = row
		}
	}

	for _, u := range sub.Anchors {
		st := state{node: u, via: -1, parent: noParent, seg: 0, hops: 0, w: 1}
		s.push(s.alloc(st), s.estimate(st))
	}
	return s
}

// Stats returns search-effort counters accumulated so far.
func (s *Searcher) Stats() Stats { return s.stats }

// estimate computes ψ̂ for a partial state (Eq. 7).
func (s *Searcher) estimate(st state) float64 {
	m := 1.0
	if !s.opts.NoHeuristic {
		m = s.w.NodeMax(st.node, int(st.seg))
	}
	return math.Pow(st.w*m, s.invRoot)
}

func (s *Searcher) alloc(st state) int32 {
	s.arena = append(s.arena, st)
	return int32(len(s.arena) - 1)
}

func (s *Searcher) push(idx int32, priority float64) {
	s.frontier.push(idx, priority)
	s.stats.Pushed++
}

// Restrict implements ta.Restricter: from now on Next skips every match
// whose end node want rejects, so it yields exactly the subsequence of its
// unrestricted output that want accepts at read time. want is asked before
// a complete state is priced and pushed, and again when one pushed earlier
// pops; its answer for a node must only ever turn from true to false.
func (s *Searcher) Restrict(want func(kg.NodeID) bool) { s.want = want }

// Next returns the match with the greatest pss not yet returned, in exact
// non-increasing pss order. ok is false when the search space is exhausted.
func (s *Searcher) Next() (Match, bool) {
	for {
		idx, pri, ok := s.frontier.pop()
		if !ok {
			return Match{}, false
		}
		st := s.arena[idx]
		if st.seg == int32(s.sub.Segments()) {
			// Complete match popped in global pss order (Theorem 2); its
			// frontier priority is its exact pss. The first to pop at its
			// node is the one expand recorded in best.
			if s.best[st.node] == emitted {
				continue
			}
			s.best[st.node] = emitted
			if s.want != nil && !s.want(st.node) {
				continue
			}
			s.stats.Emitted++
			return s.reconstruct(idx, pri), true
		}
		if s.opts.PruneVisited {
			key := stateKey{st.node, st.seg, st.hops}
			if _, dup := s.closed[key]; dup {
				continue
			}
			s.closed[key] = struct{}{}
		}
		s.stats.Popped++
		s.expand(idx, nil)
	}
}

// RunEager drives the search in the time-bounded mode of Algorithm 2:
// matches are emitted the moment they are discovered during expansion
// (non-optimal order), and the search continues until emit returns false,
// stop returns true, or the space is exhausted. It returns true when the
// space was exhausted (the eager result set is then complete and exact).
func (s *Searcher) RunEager(stop func() bool, emit func(Match) bool) bool {
	for {
		if stop != nil && stop() {
			return false
		}
		idx, _, ok := s.frontier.pop()
		if !ok {
			return true
		}
		st := s.arena[idx]
		if st.seg == int32(s.sub.Segments()) {
			continue // already emitted at discovery time
		}
		if s.opts.PruneVisited {
			key := stateKey{st.node, st.seg, st.hops}
			if _, dup := s.closed[key]; dup {
				continue
			}
			s.closed[key] = struct{}{}
		}
		s.stats.Popped++
		keepGoing := true
		s.expand(idx, func(m Match) {
			if keepGoing && !emit(m) {
				keepGoing = false
			}
		})
		if !keepGoing {
			return false
		}
	}
}

// expand generates the successor states of the arena entry at idx.
// Completed matches are pushed to the frontier in optimal mode
// (emitEager == nil), or handed to emitEager immediately in time-bounded
// mode. Raw weight products below the prune floors skip the math.Pow of
// Eq. 6/7 entirely; everything else evaluates them exactly. In optimal
// mode a complete state is pushed only if it can be the first to pop at
// its end node: the heuristic is consistent and frontier ties pop in push
// order, so that is the highest-pss state pushed earliest, and a node
// already emitted or unwanted takes none.
func (s *Searcher) expand(idx int32, emitEager func(Match)) {
	st := s.arena[idx] // copy: appends below may grow the arena
	segs := int32(s.sub.Segments())
	// Hop budget: after consuming one edge, each remaining segment still
	// needs at least one edge (hops+1 + (segs-seg-1) <= MaxHops).
	if int(st.hops)+int(segs-st.seg) > s.opts.MaxHops {
		return
	}
	ends := &s.sub.EndSets[st.seg]
	row := s.rows[st.seg]
	for _, h := range s.g.Neighbors(st.node) {
		if st.hops == 0 && s.sub.FirstHop != nil && !s.sub.FirstHop(h.Neighbor) {
			continue // another shard owns paths starting through this node
		}
		if s.onPath(idx, h.Neighbor) {
			continue // matches are simple paths (path graphs, Definition 6)
		}
		nw := st.w * row[h.Pred]
		nseg := st.seg
		nhops := st.hops + 1
		if ends.has(h.Neighbor) {
			// Segment closed on arrival (paths stop at the first node
			// matching the segment's end query node).
			nseg++
			if nseg == segs {
				// Complete match: exact pss, n = actual path length.
				if nw < s.pruneFloorComplete[nhops] {
					s.stats.Pruned++
					continue
				}
				best := 0.0 // below every pss, since τ > 0
				if emitEager == nil {
					if best = s.best[h.Neighbor]; best == emitted {
						continue
					}
					if s.want != nil && !s.want(h.Neighbor) {
						s.best[h.Neighbor] = emitted
						continue
					}
				}
				pss := math.Pow(nw, 1/float64(nhops))
				if pss < s.opts.Tau {
					s.stats.Pruned++
					continue
				}
				if pss <= best {
					continue // an earlier push at the node pops first
				}
				next := s.alloc(state{node: h.Neighbor, via: h.Edge, parent: idx,
					seg: nseg, hops: nhops, w: nw})
				if emitEager != nil {
					// Algorithm 2 collects every explored match in M̂_i;
					// consumers keep the best per answer entity.
					s.stats.Emitted++
					emitEager(s.reconstruct(next, pss))
				} else {
					s.best[h.Neighbor] = pss
					s.push(next, pss)
				}
				continue
			}
		}
		m := 1.0
		if !s.opts.NoHeuristic {
			m = s.w.NodeMax(h.Neighbor, int(nseg))
		}
		x := nw * m
		if x < s.pruneFloorPartial {
			s.stats.Pruned++
			continue
		}
		est := math.Pow(x, s.invRoot)
		if est < s.opts.Tau {
			s.stats.Pruned++
			continue
		}
		next := s.alloc(state{node: h.Neighbor, via: h.Edge, parent: idx,
			seg: nseg, hops: nhops, w: nw})
		s.push(next, est)
	}
}

// onPath reports whether node u already lies on the partial path ending at
// arena entry idx. Paths are at most MaxHops long, so the chain walk is
// O(n̂).
func (s *Searcher) onPath(idx int32, u kg.NodeID) bool {
	for cur := idx; cur != noParent; cur = s.arena[cur].parent {
		if s.arena[cur].node == u {
			return true
		}
	}
	return false
}

// reconstruct walks the parent chain twice: once to count the path, once
// backwards to fill exact-size Nodes, Edges and SegEnds.
func (s *Searcher) reconstruct(idx int32, pss float64) Match {
	n := 0
	for cur := idx; cur != noParent; cur = s.arena[cur].parent {
		n++
	}
	m := Match{
		Nodes:   make([]kg.NodeID, n),
		Edges:   make([]kg.EdgeID, n-1),
		SegEnds: make([]int, s.sub.Segments()),
		PSS:     pss,
	}
	cur := idx
	for i := n - 1; i > 0; i-- {
		st := &s.arena[cur]
		m.Nodes[i], m.Edges[i-1] = st.node, st.via
		cur = st.parent
		// Segments close on arrival: each one the parent had not closed
		// and this state has ends at position i.
		for seg := s.arena[cur].seg; seg < st.seg; seg++ {
			m.SegEnds[seg] = i
		}
	}
	m.Nodes[0] = s.arena[cur].node
	return m
}
