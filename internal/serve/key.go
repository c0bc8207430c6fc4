package serve

import (
	"crypto/sha256"
	"fmt"
	"hash"

	"semkg/internal/core"
	"semkg/internal/query"
	"semkg/internal/tbq"
)

// Cache keys are SHA-256 digests over a canonical, length-prefixed
// serialization of the query graph and the normalized options — length
// prefixes make the encoding injective (no separator-injection
// collisions). Node and edge declaration order is deliberately preserved:
// decomposition walks the query in declaration order, so two documents
// that differ only in ordering may legally decompose differently and must
// not share an entry.

// writeQuery serializes q canonically into h.
func writeQuery(h hash.Hash, q *query.Graph) {
	fmt.Fprintf(h, "q:%d,%d;", len(q.Nodes), len(q.Edges))
	for _, n := range q.Nodes {
		fmt.Fprintf(h, "n%d:%s%d:%s%d:%s", len(n.ID), n.ID, len(n.Name), n.Name, len(n.Type), n.Type)
	}
	for _, e := range q.Edges {
		fmt.Fprintf(h, "e%d:%s%d:%s%d:%s", len(e.From), e.From, len(e.To), e.To, len(e.Predicate), e.Predicate)
	}
}

// canonOpts normalizes the options for hashing so that requests which run
// the identical pipeline share keys: engine defaults applied (K unset ==
// K 10), the tbq AlertRatio default applied, AlertRatio zeroed entirely in
// the exact mode (SGQ ignores it), and Strategy zeroed when an explicit
// PivotNode overrides it.
func canonOpts(opts core.Options) core.Options {
	o := opts.Normalized()
	if o.AlertRatio <= 0 {
		o.AlertRatio = tbq.DefaultAlertRatio
	}
	if o.TimeBound == 0 {
		o.AlertRatio = 0
	}
	if o.PivotNode != "" {
		o.Strategy = 0
	}
	return o
}

// resultKey identifies one (query, options) request: every option field
// with a wire form participates, so requests that could answer differently
// never collide.
func resultKey(q *query.Graph, opts core.Options) string {
	o := canonOpts(opts)
	h := sha256.New()
	writeQuery(h, q)
	fmt.Fprintf(h, "|k=%d|tau=%g|hops=%d|strat=%d|pivot=%d:%s|pv=%t|nh=%t|tb=%d|ar=%g",
		o.K, o.Tau, o.MaxHops, o.Strategy, len(o.PivotNode), o.PivotNode,
		o.PruneVisited, o.NoHeuristic, int64(o.TimeBound), o.AlertRatio)
	return string(h.Sum(nil))
}

// planKey identifies one compiled query shape: only the compile-relevant
// options participate (core.Plan's contract), so the same plan serves any
// K or time budget.
func planKey(q *query.Graph, opts core.Options) string {
	o := canonOpts(opts)
	h := sha256.New()
	writeQuery(h, q)
	fmt.Fprintf(h, "|tau=%g|hops=%d|strat=%d|pivot=%d:%s|pv=%t|nh=%t",
		o.Tau, o.MaxHops, o.Strategy, len(o.PivotNode), o.PivotNode,
		o.PruneVisited, o.NoHeuristic)
	return string(h.Sum(nil))
}

// cacheable reports whether a request is deterministic enough to cache and
// deduplicate: process-local test hooks (Clock, Rng) and the random pivot
// strategy make otherwise-identical requests diverge, so they bypass every
// cache and run the pipeline directly (still admission-controlled).
func cacheable(opts core.Options) bool {
	return opts.Clock == nil && opts.Rng == nil && opts.Strategy != query.RandomPivot
}
