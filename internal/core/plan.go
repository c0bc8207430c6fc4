// Plan compilation: the query-dependent, run-independent front half of the
// pipeline. Compile resolves a query graph into a decomposition plus one
// searcher blueprint per sub-query (φ match sets and query predicates);
// StreamPlan/SearchPlan then run the pipeline from the compiled form. The
// split exists for two callers: the serving layer's sub-search sharing
// (internal/serve) needs each sub-query's SubqueryKey before the run
// starts, and a measurement harness times compilation on its own. Each
// run still gets fresh searcher state (A* arenas and frontiers are
// mutable and must not be shared across concurrent runs).

package core

import (
	"context"
	"crypto/sha256"
	"fmt"

	"semkg/internal/astar"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/semgraph"
	"semkg/internal/shardwire"
	"semkg/internal/transform"
)

// compileOpts are the Options fields that affect compilation (pivot
// selection, decomposition, φ resolution and searcher pruning). Runtime
// fields — K, TimeBound, AlertRatio, Clock — are deliberately absent, so
// one Plan serves any K or time budget. The struct is comparable, and
// StreamPlan uses it to reject a plan/options mismatch.
type compileOpts struct {
	tau          float64
	maxHops      int
	strategy     query.PivotStrategy
	pivotNode    string
	noHeuristic  bool
	pruneVisited bool
}

func compileOptsOf(o Options) compileOpts {
	return compileOpts{
		tau:          o.Tau,
		maxHops:      o.MaxHops,
		strategy:     o.Strategy,
		pivotNode:    o.PivotNode,
		noHeuristic:  o.NoHeuristic,
		pruneVisited: o.PruneVisited,
	}
}

// planSub is one sub-query's searcher blueprint: the compiled φ sets and
// the query predicates whose weight rows the per-run weighter materializes.
// The end sets are compiled once per plan; Anchors and EndSets are
// read-only after compilation and shared in place by every searcher,
// shard projection and shared sub-search over the plan.
type planSub struct {
	sub   astar.SubQuery
	preds []string
}

// Plan is a compiled query: the decomposition and per-sub-query searcher
// blueprints, resolved once against the whole graph. Every deployment
// shape runs the same plan: a partitioned source set projects the
// blueprints into its own form (wire, per-shard) each time it opens a
// run's sources. A Plan is immutable once Compile returns, tied to the
// engine that compiled it, and safe for concurrent reuse — every
// StreamPlan/SearchPlan call builds fresh searchers from the blueprints.
type Plan struct {
	eng      *Engine
	d        *query.Decomposition
	subs     []planSub
	compiled bool
	copts    compileOpts
}

// Pivot returns the decomposition's pivot query node ID.
func (p *Plan) Pivot() string { return p.d.Pivot }

// Compiled reports whether every query node matched at least one graph
// entity. A non-compiled plan is still runnable — it yields the empty
// answer set (the paper's G1_Q mismatch case), not an error.
func (p *Plan) Compiled() bool { return p.compiled }

// Compile resolves q into a reusable Plan under the compile-relevant
// options (Tau, MaxHops, Strategy/PivotNode, NoHeuristic, PruneVisited).
// Validation and decomposition errors are wrapped as BadRequestError,
// exactly as in Search/Stream.
func (e *Engine) Compile(q *query.Graph, opts Options) (*Plan, error) {
	if err := opts.Validate(); err != nil {
		return nil, badRequest(err)
	}
	opts = opts.withDefaults()

	// One φ memo per compilation: the cost estimator (pivot selection) and
	// the blueprint compilation resolve the same query nodes.
	memo := e.matcher.Memo()
	d, err := e.decompose(q, opts, memo)
	if err != nil {
		return nil, badRequest(err)
	}
	p := &Plan{eng: e, d: d, copts: compileOptsOf(opts)}
	subs, compiled, err := e.compileSubs(q, d, memo)
	if err != nil {
		return nil, err
	}
	p.subs, p.compiled = subs, compiled
	return p, nil
}

// compileSubs resolves each sub-query's φ sets and predicates into a
// searcher blueprint. compiled=false (with nil error) means some query
// node has no matches.
func (e *Engine) compileSubs(q *query.Graph, d *query.Decomposition, memo *transform.Memo) ([]planSub, bool, error) {
	subs := make([]planSub, 0, len(d.Subs))
	for _, sub := range d.Subs {
		anchorNode, _ := q.NodeByID(sub.Anchor())
		anchors := memo.MatchNode(anchorNode.Name, anchorNode.Type)
		if len(anchors) == 0 {
			return nil, false, nil
		}
		endSets := make([]astar.NodeSet, sub.Len())
		for i := 1; i < len(sub.NodeIDs); i++ {
			n, _ := q.NodeByID(sub.NodeIDs[i])
			ids := memo.MatchNode(n.Name, n.Type)
			if len(ids) == 0 {
				return nil, false, nil
			}
			endSets[i-1] = astar.NewNodeSet(ids, e.g.NumNodes())
		}
		preds := make([]string, sub.Len())
		for i, edge := range sub.Edges {
			preds[i] = edge.Predicate
		}
		// Resolve the predicates now so a vocabulary problem surfaces at
		// compile time (the rows are retained by the engine's RowCache, so
		// this also pre-warms the per-run weighter).
		if _, err := semgraph.NewWeighterCached(e.rows, preds); err != nil {
			return nil, false, err
		}
		subs = append(subs, planSub{
			sub:   astar.SubQuery{Anchors: anchors, EndSets: endSets},
			preds: preds,
		})
	}
	return subs, true, nil
}

// subSearcher instantiates one fresh whole-graph searcher for the i-th
// sub-query blueprint of p.
func (e *Engine) subSearcher(p *Plan, i int) (*astar.Searcher, error) {
	ps := p.subs[i]
	w, err := semgraph.NewWeighterCached(e.rows, ps.preds)
	if err != nil {
		return nil, err
	}
	return astar.NewSearcher(e.g, w, ps.sub, p.copts.searchOptions()), nil
}

// searchOptions are the compile options every searcher over the plan's
// blueprints runs under, whichever graph it searches.
func (c compileOpts) searchOptions() astar.Options {
	return astar.Options{
		Tau:          c.tau,
		MaxHops:      c.maxHops,
		NoHeuristic:  c.noHeuristic,
		PruneVisited: c.pruneVisited,
	}
}

// WireBlueprints projects the plan's sub-query blueprints into wire form:
// base-graph ids and predicate-name→weight rows, resolved once globally.
// It is what every partitioned source set starts from — a remote shard
// server receives it verbatim, an in-process shard projects it through
// the same shard.Shard.Project the server runs. Each partitioned run
// projects afresh, so a plan outlives a resharding swap. A non-compiled
// plan has none.
func (p *Plan) WireBlueprints() ([]shardwire.Blueprint, error) {
	if !p.compiled {
		return nil, nil
	}
	g := p.eng.g
	out := make([]shardwire.Blueprint, len(p.subs))
	for i, ps := range p.subs {
		bp := shardwire.Blueprint{Anchors: make([]uint32, len(ps.sub.Anchors))}
		for j, a := range ps.sub.Anchors {
			bp.Anchors[j] = uint32(a)
		}
		bp.EndSets = make([][]uint32, len(ps.sub.EndSets))
		for j, set := range ps.sub.EndSets {
			es := make([]uint32, len(set.Members()))
			for k, u := range set.Members() {
				es[k] = uint32(u)
			}
			bp.EndSets[j] = es
		}
		rows, err := p.eng.rows.Rows(ps.preds)
		if err != nil {
			return nil, err
		}
		bp.Rows = make([]map[string]float64, len(rows))
		for seg, row := range rows {
			named := make(map[string]float64, len(row))
			for pid, w := range row {
				named[g.PredName(kg.PredID(pid))] = w
			}
			bp.Rows[seg] = named
		}
		out[i] = bp
	}
	return out, nil
}

// Subqueries returns the number of compiled sub-query blueprints (0 for a
// non-compiled plan).
func (p *Plan) Subqueries() int {
	if !p.compiled {
		return 0
	}
	return len(p.subs)
}

// SubqueryKey returns a stable content hash identifying the i-th
// sub-query's searcher blueprint together with every option that shapes
// its enumeration: the anchors in push order (the frontier breaks equal
// priorities by insertion order, so order is semantic), the per-segment φ
// end sets as sets (membership-only), the per-segment query predicates
// whose weight rows the searcher materializes, and the search-relevant
// compile options (τ, n̂, heuristic and visited-pruning switches).
//
// Two plans — from different queries, or the same query under different
// runtime options — whose sub-queries share a key enumerate the identical
// match sequence on the same engine, so one A* search can serve both.
// The key deliberately excludes engine identity: a cross-query sharing
// layer must additionally gate on the engine/generation it compiled
// against, exactly as internal/serve's caches do.
func (p *Plan) SubqueryKey(i int) string {
	ps := p.subs[i]
	h := sha256.New()
	fmt.Fprintf(h, "tau=%g|hops=%d|nh=%t|pv=%t|",
		p.copts.tau, p.copts.maxHops, p.copts.noHeuristic, p.copts.pruneVisited)
	fmt.Fprintf(h, "a%d:", len(ps.sub.Anchors))
	for _, a := range ps.sub.Anchors {
		fmt.Fprintf(h, "%d,", a)
	}
	for seg, set := range ps.sub.EndSets {
		ids := set.Members()
		fmt.Fprintf(h, "e%d:%d:", seg, len(ids))
		for _, id := range ids {
			fmt.Fprintf(h, "%d,", id)
		}
	}
	for _, pred := range ps.preds {
		fmt.Fprintf(h, "p%d:%s", len(pred), pred)
	}
	return string(h.Sum(nil))
}

// SearchPlan is Search over a pre-compiled plan: the same pipeline with
// decomposition and φ resolution skipped. The plan must come from this
// engine's Compile, under options whose compile-relevant fields match.
func (e *Engine) SearchPlan(ctx context.Context, p *Plan, opts Options) (*Result, error) {
	s, err := e.streamPlan(ctx, p, opts, nil, true)
	if err != nil {
		return nil, err
	}
	return s.outcome()
}

// StreamPlan is Stream over a pre-compiled plan; see SearchPlan.
func (e *Engine) StreamPlan(ctx context.Context, p *Plan, opts Options) (*Stream, error) {
	return e.streamPlan(ctx, p, opts, nil, false)
}

// check explains a plan/engine or plan/options incompatibility.
func (p *Plan) check(e *Engine, opts Options) error {
	if p == nil {
		return fmt.Errorf("core: nil plan")
	}
	if p.eng != e {
		return fmt.Errorf("core: plan was compiled by a different engine")
	}
	if p.copts != compileOptsOf(opts) {
		return badRequest(fmt.Errorf("core: plan incompatible with options: compiled with %+v, run with %+v",
			p.copts, compileOptsOf(opts)))
	}
	return nil
}
