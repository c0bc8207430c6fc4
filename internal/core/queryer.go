// Queryer is the execution surface the serving layer (internal/serve) is
// written against, so its result cache, plan cache, singleflight and
// admission control work unchanged over every deployment shape —
// swapping -shards or -shard-hosts on in semkgd changes nothing above
// this line. *Engine is the one implementation; ShardedEngine, DistEngine
// and ReshardingEngine embed an Engine running over their source set and
// inherit it.

package core

import (
	"context"
	"fmt"

	"semkg/internal/kg"
	"semkg/internal/query"
)

// Queryer answers query graphs: batch (Search), streaming (Stream), and
// the compile/run split the serving layer's plan cache relies on
// (CompileQuery + SearchCompiled/StreamCompiled). Implementations are
// safe for concurrent use.
type Queryer interface {
	// Search runs the pipeline to completion and returns the top-k result.
	Search(ctx context.Context, q *query.Graph, opts Options) (*Result, error)
	// Stream starts the pipeline and returns a live event stream.
	Stream(ctx context.Context, q *query.Graph, opts Options) (*Stream, error)
	// CompileQuery resolves q into a reusable compiled plan under the
	// compile-relevant options; see Engine.Compile.
	CompileQuery(q *query.Graph, opts Options) (CompiledPlan, error)
	// SearchCompiled is Search over a plan this Queryer compiled.
	SearchCompiled(ctx context.Context, p CompiledPlan, opts Options) (*Result, error)
	// StreamCompiled is Stream over a plan this Queryer compiled.
	StreamCompiled(ctx context.Context, p CompiledPlan, opts Options) (*Stream, error)
	// Graph returns the (base) knowledge graph being queried.
	Graph() *kg.Graph
}

// CompiledPlan is an opaque compiled query: the output of
// Queryer.CompileQuery, runnable only by the Queryer that produced it.
// *Plan is the one implementation.
type CompiledPlan interface {
	// Pivot returns the decomposition's pivot query node ID.
	Pivot() string
	// Compiled reports whether every query node matched at least one graph
	// entity; a non-compiled plan runs to the empty answer set.
	Compiled() bool
	// PlannedBy reports whether q produced this plan. The serving layer's
	// plan cache uses it to discard entries that survived an engine swap.
	PlannedBy(q Queryer) bool
}

// CompileQuery implements Queryer; it is Compile with the concrete *Plan
// hidden behind the CompiledPlan interface.
func (e *Engine) CompileQuery(q *query.Graph, opts Options) (CompiledPlan, error) {
	p, err := e.Compile(q, opts)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// SearchCompiled implements Queryer over a plan from this engine's
// Compile/CompileQuery.
func (e *Engine) SearchCompiled(ctx context.Context, p CompiledPlan, opts Options) (*Result, error) {
	pp, err := enginePlan(p)
	if err != nil {
		return nil, err
	}
	return e.SearchPlan(ctx, pp, opts)
}

// StreamCompiled implements Queryer over a plan from this engine's
// Compile/CompileQuery.
func (e *Engine) StreamCompiled(ctx context.Context, p CompiledPlan, opts Options) (*Stream, error) {
	pp, err := enginePlan(p)
	if err != nil {
		return nil, err
	}
	return e.StreamPlan(ctx, pp, opts)
}

// enginePlan unwraps a CompiledPlan produced by CompileQuery.
func enginePlan(p CompiledPlan) (*Plan, error) {
	pp, ok := p.(*Plan)
	if !ok {
		return nil, fmt.Errorf("core: plan of type %T was not compiled by an engine of this package", p)
	}
	return pp, nil
}

// pipeline returns the engine itself. The engines that embed an *Engine —
// and facade wrappers around any of them — promote it, which is how
// PlannedBy and WholeGraph recognize a Queryer of this package whatever
// its static type.
func (e *Engine) pipeline() *Engine { return e }

func pipelineOf(q Queryer) *Engine {
	if p, ok := q.(interface{ pipeline() *Engine }); ok {
		return p.pipeline()
	}
	return nil
}

// PlannedBy implements CompiledPlan: it reports whether q's engine
// compiled this plan. An engine derived from another (a sharded engine
// and its base) is a different engine; a resharding engine stays the same
// one across its source-set swap, so its plans stay cacheable through the
// background upgrade.
func (p *Plan) PlannedBy(q Queryer) bool { return p != nil && p.eng == pipelineOf(q) }

// WholeGraph returns q's engine when q is currently answering from the
// unpartitioned graph with local searchers — a plain Engine, or a
// resharding engine still in its unsharded phase. It is the condition for
// the whole-graph-only entry points (NewSubSearch/StreamPlanShared
// sub-query sharing, CompileBatch group compilation): over a partition
// one sub-query is many per-shard enumerations, each keyed by that
// partition, so there is no single enumeration to share.
func WholeGraph(q Queryer) (*Engine, bool) {
	e := pipelineOf(q)
	if e == nil || e.sources.Load() != nil {
		return nil, false
	}
	return e, true
}
