// Batch execution: one serving-layer call answering a group of queries.
// The point of a batch is the overlap inside it — repeated query shapes
// and shared sub-query blueprints — so SearchBatch front-loads a group
// compilation (one φ memo across the group, plan cache pre-warmed) and
// then fans the items out through the ordinary Search path, where the
// result cache, singleflight, sub-search sharing and admission control
// apply exactly as they do to independent requests. A batch therefore
// cannot observe different results than its items issued separately —
// only different timing.

package serve

import (
	"context"
	"sync"

	"semkg/internal/core"
	"semkg/internal/query"
)

// BatchItem is one query of a batch request.
type BatchItem struct {
	// Query is the item's query graph.
	Query *query.Graph
	// Opts are the item's search options.
	Opts core.Options
}

// BatchOutcome reports one batch item: exactly one of Result and Err is
// set. Results are shared (possibly with other callers and the cache)
// and must be treated as read-only.
type BatchOutcome struct {
	// Result is the item's search result on success.
	Result *core.Result
	// Err is the item's failure, wrapped exactly as Search would wrap it.
	Err error
}

// SearchBatch answers a group of queries. Outcomes are positional —
// out[i] reports items[i] — and one item's failure never fails its
// neighbours. The group's cacheable plan-cache misses compile together
// under one shared φ memo (core.CompileBatch) before the items run
// concurrently through the full serving path, so common sub-searches
// are shared and repeated shapes pay compilation once.
func (e *Engine) SearchBatch(ctx context.Context, items []BatchItem) []BatchOutcome {
	e.WarmPlans(items)
	out := make([]BatchOutcome, len(items))
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i int, it BatchItem) {
			defer wg.Done()
			out[i].Result, out[i].Err = e.Search(ctx, it.Query, it.Opts)
		}(i, it)
	}
	wg.Wait()
	return out
}

// WarmPlans group-compiles the batch's distinct, cacheable plan-cache
// misses under one shared φ memo, on an engine currently answering from
// the whole graph (core.Engine.WholeGraph — the same condition as
// sub-search sharing). Compilation failures are dropped here: the failing
// item recompiles on its own Search path and surfaces the identical error
// with per-item attribution. On a partitioned engine or a disabled plan
// cache this is a no-op — items still share whatever the per-item path
// shares: over a partition compilation is dominated by projecting the
// plan into every shard, which the items' own concurrent compiles
// overlap, whereas the group compile is serial and runs before the first
// item starts. SearchBatch calls it automatically; the streaming batch
// endpoint calls it before fanning items out as individual streams.
func (e *Engine) WarmPlans(items []BatchItem) {
	eng, gen := e.engineGen()
	if !eng.WholeGraph() {
		return
	}
	var keys []string
	seen := make(map[string]bool)
	var specs []core.BatchSpec
	for _, it := range items {
		if it.Query == nil || !cacheable(it.Opts) {
			continue
		}
		if it.Query.Validate() != nil || it.Opts.Validate() != nil {
			continue
		}
		key := planKey(it.Query, it.Opts)
		if seen[key] {
			continue
		}
		if _, ok := e.plans.Get(key); ok {
			continue
		}
		seen[key] = true
		keys = append(keys, key)
		specs = append(specs, core.BatchSpec{Query: it.Query, Opts: it.Opts})
	}
	if len(specs) == 0 {
		return
	}
	plans, errs := eng.CompileBatch(specs)
	if e.currentGen() != gen {
		return // engine swapped underneath the group compile
	}
	for i, p := range plans {
		if errs[i] == nil && p != nil {
			e.plans.Add(keys[i], p)
		}
	}
}
