// Batch experiment: what cross-query sub-search sharing buys on an
// overlapping workload. The workload replays zipf-skewed batches whose
// items repeat query shapes under varying K — the result cache is
// disabled in both configurations so every item runs the pipeline, and
// the only difference between the two measured rows is the shared
// sub-search cache (internal/serve's subcache layer): the independent
// configuration re-enumerates every sub-query, the shared one reuses the
// memoized match prefix.
package bench

import (
	"context"
	"fmt"
	"math/rand"

	"semkg/internal/datagen"
	"semkg/internal/query"
	"semkg/internal/serve"
)

// makeBatches is the deterministic request mix: batches of zipf-drawn
// query shapes, each item with one of several K values, so repeated
// shapes share sub-query blueprints while their result keys differ.
func makeBatches(env *Env, qs []*query.Graph, nBatches, batchSize int) [][]serve.BatchItem {
	rng := rand.New(rand.NewSource(23))
	zipf := rand.NewZipf(rng, 1.2, 1.0, uint64(len(qs)-1))
	// Larger K values make each item enumerate deeper, so a reused match
	// prefix saves real work rather than noise.
	ks := []int{10, 25, 50}
	batches := make([][]serve.BatchItem, nBatches)
	for b := range batches {
		items := make([]serve.BatchItem, batchSize)
		for i := range items {
			items[i] = serve.BatchItem{
				Query: qs[zipf.Uint64()],
				Opts:  env.SearchOptions(ks[rng.Intn(len(ks))]),
			}
		}
		batches[b] = items
	}
	return batches
}

// runBatch measures the batch workload with sub-search sharing disabled
// and enabled. One operation is one whole batch, so the Sample's
// latencies and QPS are per batch; item_qps counts batch items.
func runBatch(ctx context.Context, p Params) (*Artifact, error) {
	env, err := p.env(datagen.DBpediaLike)
	if err != nil {
		return nil, err
	}
	qs, err := serveQueries(env)
	if err != nil {
		return nil, err
	}
	// Enough batches that the shared configuration's warmup misses (the
	// first time each blueprint is seen) amortize out of the comparison.
	nBatches, batchSize := 64, 8
	if p.Short {
		nBatches = 8
	}
	batches := makeBatches(env, qs, nBatches, batchSize)
	art := env.artifact("batch")

	// Both rows disable the result cache: with it on, repeated (shape, K)
	// pairs answer from the cache in either configuration and the rows
	// would converge to measuring the cache, not the sharing layer.
	// Queue sized for the batch width: this workload measures sharing,
	// not shedding, so no item should be rejected.
	type side struct {
		name   string
		srv    *serve.Engine
		sample Sample
	}
	sides := []*side{
		{name: "independent", srv: serve.New(env.Engine, serve.Config{ResultCache: -1, SubCache: -1, Queue: 2 * batchSize})},
		{name: "shared", srv: serve.New(env.Engine, serve.Config{ResultCache: -1, Queue: 2 * batchSize})},
	}
	// The two configurations replay every batch back to back with
	// alternating order (a paired measurement), so ambient machine load
	// hits both sides equally instead of skewing whichever ran second.
	// Each side's Sample pools its own one-batch runs, so its QPS divides
	// by its own busy time, not the shared wall clock.
	for bi, batch := range batches {
		for j := range sides {
			sd := sides[(bi+j)%2]
			sd.sample.Merge(Drive(ctx, Load{Requests: 1}, func(ctx context.Context, _, _ int) error {
				for i, o := range sd.srv.SearchBatch(ctx, batch) {
					if o.Err != nil {
						return fmt.Errorf("batch item %d: %w", i, o.Err)
					}
				}
				return nil
			}))
			if err := sd.sample.Err; err != nil {
				return nil, fmt.Errorf("bench: %s: %w", sd.name, err)
			}
		}
	}
	for _, sd := range sides {
		st := sd.srv.Stats()
		s := sd.sample
		art.add("batch", sd.name, map[string]float64{
			"batch_size":    float64(batchSize),
			"requests":      float64(s.Ops * batchSize),
			"item_qps":      s.QPS * float64(batchSize),
			"sub_hits":      float64(st.SubHits),
			"sub_misses":    float64(st.SubMisses),
			"pipeline_runs": float64(st.PipelineRuns),
			"flight_shared": float64(st.FlightShared),
		}).Sample = &s
	}
	// Both > 1 mean sharing won; recorded, not asserted — they are ratios
	// of two wall-clock timings.
	ind, shr := sides[0].sample, sides[1].sample
	gains := art.Rows[1].Values
	if ind.QPS > 0 {
		gains["qps_gain"] = shr.QPS / ind.QPS
	}
	if shr.P50Us > 0 {
		gains["p50_speedup"] = ind.P50Us / shr.P50Us
	}
	return art, nil
}
