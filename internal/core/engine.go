// Package core orchestrates the full semantic-guided graph query pipeline
// of the paper (Fig. 5): query-graph decomposition (Section III), on-the-fly
// semantic graph weighting (Section IV), one A* semantic search per
// sub-query graph (Section V-A/B, run concurrently — "each thread represents
// an A* semantic search for a sub-query graph"), TA-based final match
// assembly at the pivot (Section V-C), and the response-time-bounded
// approximate mode (Section VI).
//
// The root package semkg re-exports this engine as the public API.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"semkg/internal/astar"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/semgraph"
	"semkg/internal/ta"
	"semkg/internal/tbq"
	"semkg/internal/transform"
)

// Engine answers query graphs over one knowledge graph using one trained
// predicate semantic space. It is the one engine type of every deployment
// shape: queries compile globally against the whole graph, and the run
// gathers its matches from the engine's source set — the whole graph for
// a plain engine, a partition of it for the engines NewShardedEngine,
// NewDistEngine and NewResharding derive from one (see source.go;
// Deployment describes which). It is safe for concurrent use: all mutable
// search state lives per call.
type Engine struct {
	g       *kg.Graph
	space   *embed.Space
	matcher *transform.Matcher
	// rows shares semantic weight rows (per resolved query predicate)
	// across concurrent searchers and repeated queries for the engine's
	// lifetime; the rows are query-independent (see semgraph.RowCache).
	rows *semgraph.RowCache

	// sources is the partitioned source set runs scatter over; nil
	// searches the whole graph.
	sources atomic.Pointer[sourceSet]
	// resharding marks an engine from NewResharding, whose source set
	// lands in the background.
	resharding bool
}

// Queryer is an alias of *Engine, kept for callers that spell the engine
// type of a serve.Config.Build function by this name.
type Queryer = *Engine

// NewEngine builds an engine over g with the predicate space (usually
// model.Space(g) from a TransE run) and the synonym/abbreviation library
// (nil for identical-only node matching plus heuristic abbreviations).
func NewEngine(g *kg.Graph, space *embed.Space, lib *transform.Library) (*Engine, error) {
	if g == nil || space == nil {
		return nil, fmt.Errorf("core: nil graph or space")
	}
	if space.Len() != g.NumPredicates() {
		return nil, fmt.Errorf("core: space covers %d predicates, graph has %d", space.Len(), g.NumPredicates())
	}
	rows, err := semgraph.NewRowCache(g, space)
	if err != nil {
		return nil, err
	}
	return &Engine{g: g, space: space, matcher: transform.NewMatcher(g, lib), rows: rows}, nil
}

// over derives an engine sharing e's world — graph, space, matcher, weight
// rows — that scatters its runs over ss (nil: the whole graph). The derived
// engine has its own identity: plans do not cross between it and e.
func (e *Engine) over(ss *sourceSet) *Engine {
	d := &Engine{g: e.g, space: e.space, matcher: e.matcher, rows: e.rows}
	d.sources.Store(ss)
	return d
}

// Graph returns the engine's knowledge graph.
func (e *Engine) Graph() *kg.Graph { return e.g }

// Space returns the engine's predicate semantic space.
func (e *Engine) Space() *embed.Space { return e.space }

// Matcher returns the engine's node matcher (the φ relation).
func (e *Engine) Matcher() *transform.Matcher { return e.matcher }

// Rows returns the engine's predicate weight-row cache.
func (e *Engine) Rows() *semgraph.RowCache { return e.rows }

// Options configures one search call.
type Options struct {
	// K is the number of answers to return. Default 10.
	K int
	// Tau is the pss threshold τ. Default 0.8 (the paper's default).
	Tau float64
	// MaxHops is the user-desired path length n̂. Default 4.
	MaxHops int
	// Strategy selects the pivot (minCost by default).
	Strategy query.PivotStrategy
	// PivotNode forces an explicit pivot query node (Table V's per-pivot
	// comparison); empty uses Strategy.
	PivotNode string
	// Rng is used by the RandomPivot strategy.
	Rng *rand.Rand
	// PruneVisited enables the paper's visited-set pruning (see astar).
	PruneVisited bool
	// NoHeuristic disables the m(u) estimate factor (ablation).
	NoHeuristic bool

	// TimeBound, when positive, switches to the response-time-bounded
	// mode (TBQ, Section VI) with this bound T: the exact pipeline, cut at
	// T·r% if it has not finished by then.
	TimeBound time.Duration
	// AlertRatio is the r% of the cut (default tbq.DefaultAlertRatio). TBQ
	// mode only.
	AlertRatio float64
	// Clock abstracts time in TBQ mode (tests); nil = wall clock.
	Clock tbq.Clock
}

// BadRequestError marks an error as caused by the caller's query or
// options (validation, decomposition, pivot selection) rather than by the
// engine: an HTTP front end maps it to a 400, not a 500. Unwrap exposes
// the underlying error.
type BadRequestError struct{ Err error }

func (e BadRequestError) Error() string { return e.Err.Error() }

// Unwrap supports errors.Is/As.
func (e BadRequestError) Unwrap() error { return e.Err }

// badRequest wraps err as a BadRequestError (nil stays nil).
func badRequest(err error) error {
	if err == nil {
		return nil
	}
	return BadRequestError{Err: err}
}

// Validate reports out-of-range option values with explicit errors instead
// of the silent clamping the fields would otherwise fall through to. Zero
// values are valid and mean "use the default" (K=10, τ=0.8, n̂=4,
// r%=tbq.DefaultAlertRatio); Search, Stream and the HTTP service all validate before
// running, so a bad request fails fast instead of searching with
// surprising parameters.
func (o Options) Validate() error {
	if o.K < 0 {
		return fmt.Errorf("core: K = %d out of range (must be positive, or 0 for the default 10)", o.K)
	}
	if o.Tau < 0 || o.Tau > 1 {
		return fmt.Errorf("core: Tau = %v out of range (must be in (0,1], or 0 for the default 0.8)", o.Tau)
	}
	if o.MaxHops < 0 {
		return fmt.Errorf("core: MaxHops = %d out of range (must be positive, or 0 for the default 4)", o.MaxHops)
	}
	if o.TimeBound < 0 {
		return fmt.Errorf("core: TimeBound = %v out of range (must be non-negative; 0 selects the exact SGQ mode)", o.TimeBound)
	}
	if o.AlertRatio < 0 || o.AlertRatio > 1 {
		return fmt.Errorf("core: AlertRatio = %v out of range (must be in (0,1], or 0 for the default %v)", o.AlertRatio, tbq.DefaultAlertRatio)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 10
	}
	if o.Tau <= 0 {
		o.Tau = 0.8
	}
	if o.MaxHops <= 0 {
		o.MaxHops = 4
	}
	return o
}

// Normalized returns the options with the engine defaults applied to the
// zero fields (K=10, τ=0.8, n̂=4). Two option values that normalize
// equally run the identical pipeline, so cache keys should be computed
// from the normalized form — "K unset" and "K: 10" then share an entry.
func (o Options) Normalized() Options { return o.withDefaults() }

// PathStep is one knowledge-graph edge of an answer path, rendered with
// names for display.
type PathStep struct {
	FromName  string
	Predicate string
	ToName    string
}

// SubMatch is one sub-query graph's matched path inside an answer.
type SubMatch struct {
	PSS   float64
	Steps []PathStep
}

// Answer is a final match: an entity for the pivot query node plus the
// joined sub-query paths and the match score (Eq. 2).
type Answer struct {
	Pivot     kg.NodeID
	PivotName string
	Score     float64
	Parts     []SubMatch
	// Bindings maps every query node ID covered by the sub-queries to its
	// matched entity name (target nodes get their discovered entities;
	// specific nodes their anchors). When sub-queries disagree on a shared
	// non-pivot node, the first sub-query's assignment wins — consistency
	// is only enforced at the pivot, as in the paper.
	Bindings map[string]string
}

// Result is the outcome of a search.
type Result struct {
	Answers       []Answer
	Decomposition *query.Decomposition
	Elapsed       time.Duration
	// Approximate is true in TBQ mode when the deadline cut the assembly
	// short: the answers are complete candidates at their exact scores,
	// but may miss or misorder members of the exact top-k (more time
	// refines them, Theorem 4).
	Approximate bool
	// SearchStats aggregates per-sub-query search effort.
	SearchStats []astar.Stats
	// ShardEffort aggregates per-shard search effort, indexed by shard
	// (runs over a partition only; nil on the whole graph, halo fallbacks
	// included). The popped/pushed counters measure how the partition
	// distributed the work.
	ShardEffort []astar.Stats
	// Collected counts the matches each sub-query's stream delivered to
	// the assembly (TBQ mode only).
	Collected []int
}

// Entities returns the answer entity names (the pivot bindings), in rank
// order.
func (r *Result) Entities() []string {
	out := make([]string, len(r.Answers))
	for i, a := range r.Answers {
		out[i] = a.PivotName
	}
	return out
}

// EntitiesOf returns the distinct entities bound to the given query node
// across the answers, in rank order. Use this when the query's focus
// variable is not the pivot chosen by the decomposition.
func (r *Result) EntitiesOf(nodeID string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range r.Answers {
		if name, ok := a.Bindings[nodeID]; ok && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// costEstimator adapts the engine to query.CostEstimator (Eq. 1). It
// resolves φ through the per-search memo, so buildSearchers reuses the
// match sets instead of recomputing them.
type costEstimator struct {
	e    *Engine
	memo *transform.Memo
}

func (c costEstimator) AnchorCount(name, typeName string) int {
	return len(c.memo.MatchNode(name, typeName))
}

func (c costEstimator) AvgDegree() float64 { return c.e.g.AvgDegree() }

// Search runs the semantic-guided graph query (SGQ), or the time-bounded
// variant (TBQ) when opts.TimeBound > 0, and returns the top-k answers.
// It is the batch form of Stream: the same pipeline, consumed to
// completion, with the event stream discarded.
//
// A query node that matches nothing in the knowledge graph (the paper's
// G1_Q mismatch case) yields an empty answer set, not an error: the query
// is well-formed, the graph just has no matches.
func (e *Engine) Search(ctx context.Context, q *query.Graph, opts Options) (*Result, error) {
	s, err := e.stream(ctx, q, opts, true)
	if err != nil {
		return nil, err
	}
	return s.outcome()
}

func (e *Engine) decompose(q *query.Graph, opts Options, memo *transform.Memo) (*query.Decomposition, error) {
	dopts := query.Options{
		Strategy:  opts.Strategy,
		Rng:       opts.Rng,
		Estimator: costEstimator{e, memo},
		MaxHops:   opts.MaxHops,
	}
	if opts.PivotNode != "" {
		if err := q.Validate(); err != nil {
			return nil, err
		}
		return query.DecomposeWithPivot(q, opts.PivotNode, dopts)
	}
	return query.Decompose(q, dopts)
}

// resumeStream serves prefetched matches first, then resumes the underlying
// search ("we repeat the A* semantic search for each g_i until sufficient
// final matches for G_Q are returned") — any sorted match source. Context
// cancellation ends the stream, turning the assembly into an anytime
// operation; so does a time-bounded run's deadline dl (nil in the exact
// mode), which refuses the resumed search. A search that ran dry is
// exhausted, never refused: past its buffer it simply ends.
type resumeStream struct {
	ctx    context.Context
	dl     *deadline
	buf    []astar.Match
	pos    int
	search ta.Stream
	dry    bool
}

// Restrict forwards the assembly's hint to a search that takes it (see
// ta.Restricter). The buffered prefix was read before the hint; the
// assembly skips what it does not want there.
func (r *resumeStream) Restrict(want func(kg.NodeID) bool) {
	if rs, ok := r.search.(ta.Restricter); ok {
		rs.Restrict(want)
	}
}

func (r *resumeStream) Next() (astar.Match, bool) {
	if r.pos < len(r.buf) {
		m := r.buf[r.pos]
		r.pos++
		return m, true
	}
	if r.dry || r.dl.refuse(r.ctx) {
		return astar.Match{}, false
	}
	m, ok := r.pull()
	if !ok && !r.dry {
		r.dl.refuse(r.ctx) // cancelled mid-pull: a time-bounded run takes its cut
	}
	return m, ok
}

// pull asks the search for its next match and records a search that ran
// dry; a remote search that ends because the run was cancelled did not.
func (r *resumeStream) pull() (astar.Match, bool) {
	m, ok := r.search.Next()
	r.dry = !ok && r.ctx.Err() == nil
	return m, ok
}

func (e *Engine) renderAnswers(finals []ta.Final, d *query.Decomposition) []Answer {
	answers := make([]Answer, len(finals))
	for i, f := range finals {
		answers[i] = e.renderAnswer(f, d)
	}
	return answers
}

// renderAnswer renders one final match with names, paths and bindings.
func (e *Engine) renderAnswer(f ta.Final, d *query.Decomposition) Answer {
	a := Answer{
		Pivot:     f.Pivot,
		PivotName: e.g.NodeName(f.Pivot),
		Score:     f.Score,
		Bindings:  make(map[string]string),
	}
	for pi, part := range f.Parts {
		sm := SubMatch{PSS: part.PSS}
		for _, eid := range part.Edges {
			edge := e.g.EdgeAt(eid)
			// Render with the edge's true direction (paths ignore
			// directionality, but the fact reads one way).
			sm.Steps = append(sm.Steps, PathStep{
				FromName:  e.g.NodeName(edge.Src),
				Predicate: e.g.PredName(edge.Pred),
				ToName:    e.g.NodeName(edge.Dst),
			})
		}
		a.Parts = append(a.Parts, sm)
		// Bindings: the sub-query's query nodes anchor at the path's
		// start and at each segment end.
		sub := d.Subs[pi]
		bind := func(qid string, u kg.NodeID) {
			if _, taken := a.Bindings[qid]; !taken {
				a.Bindings[qid] = e.g.NodeName(u)
			}
		}
		bind(sub.NodeIDs[0], part.Nodes[0])
		for s, pos := range part.SegEnds {
			bind(sub.NodeIDs[s+1], part.Nodes[pos])
		}
	}
	return a
}
