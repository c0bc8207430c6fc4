// Batch execution: one serving-layer call answering a group of queries.
// The point of a batch is the overlap inside it — repeated query shapes
// and shared sub-query blueprints — and SearchBatch gets it by fanning the
// items out concurrently through the ordinary Search path, where the
// result cache, singleflight, sub-search sharing and admission control
// apply exactly as they do to independent requests. A
// batch therefore cannot observe different results than its items issued
// separately — only different timing.

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
// neighbours. The items run concurrently through the full serving path,
// so common sub-searches are shared and repeated shapes pay compilation
// once.
func (e *Engine) SearchBatch(ctx context.Context, items []BatchItem) []BatchOutcome {
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
