// Serve experiment: throughput and latency of the engine-level serving
// layer (internal/serve) under multi-query workloads — the production
// metric the single-query experiments of Section VII do not cover. Three
// workloads: a repeated hot query (result-cache effect on p50), a
// zipf-skewed mixed workload with concurrent clients (cache hit rate and
// QPS under realistic popularity), and a burst of concurrent identical
// cold requests (singleflight collapse).
package bench

import (
	"context"
	"fmt"
	"math/rand"

	"semkg/internal/datagen"
	"semkg/internal/query"
	"semkg/internal/serve"
)

// serveQueries gathers the generated workload queries by popularity rank:
// simple first (the hot head of the zipf distribution), then medium and
// complex shapes in the tail.
func serveQueries(env *Env) ([]*query.Graph, error) {
	var out []*query.Graph
	for _, gq := range env.Dataset.Simple {
		out = append(out, gq.Graph)
	}
	for _, gq := range env.Dataset.Medium {
		out = append(out, gq.Graph)
	}
	for _, gq := range env.Dataset.Complex {
		out = append(out, gq.Graph)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: environment has no workload queries")
	}
	return out, nil
}

// zipfPickers returns one seeded zipf index source per client over n
// items (rank 0 hottest), so Drive clients share no RNG.
func zipfPickers(clients, n int, seed int64) []*rand.Zipf {
	out := make([]*rand.Zipf, clients)
	for c := range out {
		out[c] = rand.NewZipf(rand.New(rand.NewSource(seed+int64(c))), 1.2, 1, uint64(n-1))
	}
	return out
}

// serveCounters snapshots the serving-layer counters a row reports.
func serveCounters(st serve.Stats) map[string]float64 {
	return map[string]float64{
		"result_hits":   float64(st.ResultHits),
		"pipeline_runs": float64(st.PipelineRuns),
		"flight_shared": float64(st.FlightShared),
	}
}

// runServe measures the serving layer.
func runServe(ctx context.Context, p Params) (*Artifact, error) {
	env, err := p.env(datagen.DBpediaLike)
	if err != nil {
		return nil, err
	}
	qs, err := serveQueries(env)
	if err != nil {
		return nil, err
	}
	opts := env.SearchOptions(10)
	art := env.artifact("serve")
	// record adds one workload row; every workload here must be error-free.
	record := func(name string, s Sample, values map[string]float64) error {
		if s.Err != nil {
			return fmt.Errorf("bench: serve %s: %w", name, s.Err)
		}
		art.add("serve", name, values).Sample = &s
		return nil
	}

	// Hot-query p50: the bare engine re-runs the pipeline every time, the
	// serving layer answers from the warm result cache.
	const repeats = 200
	bare := Drive(ctx, Load{Requests: repeats}, func(ctx context.Context, _, _ int) error {
		_, err := env.Engine.Search(ctx, qs[0], opts)
		return err
	})
	if err := record("repeated-query (bare engine)", bare, nil); err != nil {
		return nil, err
	}
	srv := serve.New(env.Engine, serve.Config{})
	if _, err := srv.Search(ctx, qs[0], opts); err != nil { // prime the cache
		return nil, err
	}
	warm := Drive(ctx, Load{Requests: repeats}, func(ctx context.Context, _, _ int) error {
		_, err := srv.Search(ctx, qs[0], opts)
		return err
	})
	values := serveCounters(srv.Stats())
	if warm.P50Us > 0 {
		values["speedup"] = bare.P50Us / warm.P50Us
	}
	if err := record("repeated-query", warm, values); err != nil {
		return nil, err
	}

	// Zipf-skewed mix from concurrent clients: the head hits the result
	// cache, the tail misses it and runs the full pipeline under the
	// worker pool. Queues are sized for the client count — these
	// workloads measure cache and dedup behaviour, not shedding.
	const zipfClients = 8
	srv = serve.New(env.Engine, serve.Config{Queue: 2 * zipfClients})
	pick := zipfPickers(zipfClients, len(qs), 7)
	zipf := Drive(ctx, Load{Clients: zipfClients, Requests: 100}, func(ctx context.Context, c, _ int) error {
		_, err := srv.Search(ctx, qs[pick[c].Uint64()], opts)
		return err
	})
	if err := record("zipf-mixed", zipf, serveCounters(srv.Stats())); err != nil {
		return nil, err
	}

	// Concurrent identical cold requests: singleflight should collapse
	// them to (near) one pipeline execution.
	const burstClients = 32
	srv = serve.New(env.Engine, serve.Config{Queue: 2 * burstClients})
	burst := Drive(ctx, Load{Clients: burstClients, Requests: 1}, func(ctx context.Context, _, _ int) error {
		_, err := srv.Search(ctx, qs[0], opts)
		return err
	})
	if err := record("burst-identical", burst, serveCounters(srv.Stats())); err != nil {
		return nil, err
	}
	return art, nil
}
