// Package semgraph materializes the semantic graph SG_Q of the paper
// (Definition 5, Section IV-B) lazily: instead of weighting every edge of
// the knowledge graph up front, a Weighter computes the semantic weight
// w = sim(L_Q(e), L(e')) (Eq. 5) on demand while the A* search explores, and
// computes the per-node maximum adjacent weight m(u_i) used by the
// heuristic pss estimation (Eq. 7) from the node's distinct incident
// predicates when the search asks for it.
//
// The per-predicate weight rows w[seg][pred] depend only on the resolved
// query predicate, not on the query as a whole, so an engine-lifetime
// RowCache shares them across concurrent searchers and repeated queries
// instead of recomputing NumPredicates similarities per query edge per
// call (see DESIGN.md, Hot path).
//
// A Weighter is bound to one sub-query graph (its sequence of query-edge
// predicates); create one per sub-query search. It is read-only once
// built, and the RowCache it draws rows from is safe for concurrent use.
package semgraph

import (
	"fmt"
	"sync"

	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/strutil"
)

// MinWeight is the clamp floor for semantic weights. The pss machinery
// (Lemma 1, Theorem 1) requires weights in (0, 1]; anything at or below
// the floor is semantically unrelated and will be pruned by any
// reasonable τ.
const MinWeight = 1e-6

// weight maps a cosine similarity in [-1, 1] to the edge weight in (0, 1].
// The paper applies Eq. 5 (raw cosine) to a space trained on millions of
// triples, where synonym predicates reach cosines of 0.8-0.98. At
// reproduction scale cosines land lower for the same semantic
// relationships, so we use the standard angular normalization
// (cos+1)/2 — identical ordering, and the τ threshold keeps the paper's
// absolute semantics (τ = 0.8 keeps near-synonyms, prunes unrelated
// predicates). See DESIGN.md (Substitutions).
func weight(cos float64) float64 {
	return clamp((cos + 1) / 2)
}

// row is one cached weight row: the clamped similarity of every graph
// predicate against one resolved query predicate.
type row []float64

func computeRow(g *kg.Graph, space *embed.Space, qp kg.PredID) row {
	n := g.NumPredicates()
	r := make(row, n)
	for p := 0; p < n; p++ {
		r[p] = weight(space.Similarity(int(qp), p))
	}
	return r
}

// RowCache shares weight rows and predicate resolutions across every
// Weighter of one engine. Rows are immutable once computed; the cache is
// safe for concurrent use.
type RowCache struct {
	g     *kg.Graph
	space *embed.Space

	mu       sync.RWMutex
	resolved map[string]kg.PredID
	rows     map[kg.PredID]row
}

// NewRowCache builds an empty cache over g and its predicate space.
func NewRowCache(g *kg.Graph, space *embed.Space) (*RowCache, error) {
	if space.Len() != g.NumPredicates() {
		return nil, fmt.Errorf("semgraph: space has %d predicates, graph has %d", space.Len(), g.NumPredicates())
	}
	return &RowCache{
		g:        g,
		space:    space,
		resolved: make(map[string]kg.PredID),
		rows:     make(map[kg.PredID]row),
	}, nil
}

// Resolve maps a query predicate name to a graph predicate as
// ResolvePredicate does, memoizing the (potentially O(P·|name|))
// string-similarity fallback for mistyped predicates.
func (c *RowCache) Resolve(name string) (kg.PredID, error) {
	c.mu.RLock()
	qp, ok := c.resolved[name]
	c.mu.RUnlock()
	if ok {
		return qp, nil
	}
	qp, err := ResolvePredicate(c.g, name)
	if err != nil {
		return -1, err
	}
	c.mu.Lock()
	c.resolved[name] = qp
	c.mu.Unlock()
	return qp, nil
}

// rowFor returns the (computed-once) weight row of a resolved predicate.
func (c *RowCache) rowFor(qp kg.PredID) row {
	c.mu.RLock()
	r, ok := c.rows[qp]
	c.mu.RUnlock()
	if ok {
		return r
	}
	r = computeRow(c.g, c.space, qp)
	c.mu.Lock()
	// A racing goroutine may have stored the row first; rows for the same
	// predicate are identical, so last-write-wins is fine.
	c.rows[qp] = r
	c.mu.Unlock()
	return r
}

// Weighter computes semantic edge weights for one sub-query graph. It holds
// only its weight rows, so building one costs O(segments) whatever the
// graph's size.
type Weighter struct {
	g *kg.Graph
	// w[seg][pred] is the clamped similarity between the sub-query's
	// seg-th query edge and graph predicate pred. Rows may be shared
	// through a RowCache and must not be mutated.
	w [][]float64
}

// NewWeighter builds a Weighter for a sub-query whose query edges carry the
// given predicates, in path order, computing its weight rows from scratch.
// Each query predicate is resolved against the graph's predicate
// vocabulary: exact name match first, then the most string-similar
// predicate (the paper assumes query predicates come from the KG
// vocabulary; the fallback keeps mistyped predicates usable). Engine-driven
// searches share rows through NewWeighterCached instead.
func NewWeighter(g *kg.Graph, space *embed.Space, predicates []string) (*Weighter, error) {
	if space.Len() != g.NumPredicates() {
		return nil, fmt.Errorf("semgraph: space has %d predicates, graph has %d", space.Len(), g.NumPredicates())
	}
	if len(predicates) == 0 {
		return nil, fmt.Errorf("semgraph: sub-query has no predicates")
	}
	wt := newWeighter(g, len(predicates))
	for seg, name := range predicates {
		qp, err := ResolvePredicate(g, name)
		if err != nil {
			return nil, err
		}
		wt.w[seg] = computeRow(g, space, qp)
	}
	return wt, nil
}

// NewWeighterCached builds a Weighter whose weight rows come from (and are
// retained by) the shared cache.
func NewWeighterCached(cache *RowCache, predicates []string) (*Weighter, error) {
	if len(predicates) == 0 {
		return nil, fmt.Errorf("semgraph: sub-query has no predicates")
	}
	wt := newWeighter(cache.g, len(predicates))
	for seg, name := range predicates {
		qp, err := cache.Resolve(name)
		if err != nil {
			return nil, err
		}
		wt.w[seg] = cache.rowFor(qp)
	}
	return wt, nil
}

// Rows returns the shared weight rows for the given query predicates, in
// path order — resolving each predicate (and memoizing the resolution)
// exactly as NewWeighterCached does. The rows are the cache's own and
// must not be mutated. The sharded engine projects these whole-graph rows
// into per-shard predicate spaces, so every shard weights edges with the
// same globally-resolved similarities the single engine uses.
func (c *RowCache) Rows(predicates []string) ([][]float64, error) {
	if len(predicates) == 0 {
		return nil, fmt.Errorf("semgraph: sub-query has no predicates")
	}
	rows := make([][]float64, len(predicates))
	for seg, name := range predicates {
		qp, err := c.Resolve(name)
		if err != nil {
			return nil, err
		}
		rows[seg] = c.rowFor(qp)
	}
	return rows, nil
}

// NewWeighterFromRows builds a Weighter over g from externally supplied
// per-segment weight rows (rows[seg][pred], one entry per predicate of g).
// No predicate resolution happens: the caller fixes the semantics, which
// is how shard graphs reuse the base graph's resolutions and similarity
// rows instead of re-resolving against their truncated vocabularies. The
// rows are shared, not copied, and must not be mutated afterwards.
func NewWeighterFromRows(g *kg.Graph, rows [][]float64) (*Weighter, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("semgraph: sub-query has no predicates")
	}
	wt := newWeighter(g, len(rows))
	for seg, r := range rows {
		if len(r) != g.NumPredicates() {
			return nil, fmt.Errorf("semgraph: row %d covers %d predicates, graph has %d", seg, len(r), g.NumPredicates())
		}
		wt.w[seg] = r
	}
	return wt, nil
}

func newWeighter(g *kg.Graph, segs int) *Weighter {
	return &Weighter{g: g, w: make([][]float64, segs)}
}

// ResolvePredicate maps a query predicate name to a graph predicate:
// exact match, else the most string-similar predicate name.
func ResolvePredicate(g *kg.Graph, name string) (kg.PredID, error) {
	if p := g.PredByName(name); p >= 0 {
		return p, nil
	}
	best, bestSim := kg.PredID(-1), -1.0
	for p := 0; p < g.NumPredicates(); p++ {
		if s := strutil.Similarity(name, g.PredName(kg.PredID(p))); s > bestSim {
			best, bestSim = kg.PredID(p), s
		}
	}
	if best < 0 {
		return -1, fmt.Errorf("semgraph: predicate %q cannot be resolved (empty vocabulary)", name)
	}
	return best, nil
}

// Segments returns the number of query edges the Weighter serves.
func (w *Weighter) Segments() int { return len(w.w) }

// Weight returns the semantic weight of graph predicate p for the seg-th
// query edge, clamped to (0, 1].
func (w *Weighter) Weight(p kg.PredID, seg int) float64 { return w.w[seg][p] }

// NodeMax returns the m(u) bound for a search positioned at node u while
// matching the seg-th query edge: the maximum semantic weight among u's
// incident edges, taken over the current and all later query edges. This
// upper-bounds the weight product of any unexplored path suffix (Lemma 1,
// generalized to multi-edge sub-queries; see DESIGN.md). It reads
// kg.NodePreds, so it costs O(distinct predicates × remaining segments),
// not O(degree), and allocates nothing.
func (w *Weighter) NodeMax(u kg.NodeID, seg int) float64 {
	m := MinWeight
	for _, p := range w.g.NodePreds(u) {
		for _, r := range w.w[seg:] {
			if r[p] > m {
				m = r[p]
			}
		}
	}
	return m
}

// Row returns the shared weight row of the seg-th query edge, one entry
// per graph predicate. It implements astar.RowProvider, letting searchers
// index the rows in place instead of copying them per search.
func (w *Weighter) Row(seg int) []float64 { return w.w[seg] }

func clamp(x float64) float64 {
	if x < MinWeight {
		return MinWeight
	}
	if x > 1 {
		return 1
	}
	return x
}
