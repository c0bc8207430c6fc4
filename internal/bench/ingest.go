// Ingest experiment: the storage layer's production metrics. Three
// measurements: cold-start load time of the binary snapshot codec against
// the TSV parse + index build it replaces, delta-commit latency as a
// function of delta size, and end-to-end search throughput while a
// background applier publishes commits through serve.Apply (generation
// swaps racing live queries).
package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"semkg/internal/core"
	"semkg/internal/datagen"
	"semkg/internal/kg"
	"semkg/internal/serve"
)

// runIngest measures the storage layer.
func runIngest(ctx context.Context, p Params) (*Artifact, error) {
	env, err := p.env(datagen.DBpediaLike)
	if err != nil {
		return nil, err
	}
	art := env.artifact("ingest")
	if err := measureLoad(art, env.Dataset.Graph, p.Short); err != nil {
		return nil, err
	}
	sizes := []int{10, 100, 1000}
	if p.Short {
		sizes = []int{10, 100}
	}
	for _, size := range sizes {
		if err := measureCommit(art, env.Dataset.Graph, size, p.Short); err != nil {
			return nil, err
		}
	}
	if err := measureLive(ctx, art, env, p.Short); err != nil {
		return nil, err
	}
	return art, nil
}

// measureLoad compares a cold start from the TSV triple format (parse +
// Build + index derivation) against the binary snapshot codec, both from
// memory so disk speed does not pollute the comparison. The minimum over
// the iterations is reported — load time is a floor-bound metric — and
// a collection runs between iterations, outside the timed region, so an
// incidental GC cycle does not land in one side's timings (a real cold
// start runs long before the first collection).
func measureLoad(art *Artifact, g *kg.Graph, short bool) error {
	var tsv, snap bytes.Buffer
	if err := kg.WriteTriples(&tsv, g); err != nil {
		return err
	}
	if err := kg.WriteSnapshot(&snap, g); err != nil {
		return err
	}
	iters := 11
	if short {
		iters = 9 // the load pair is cheap; a stable minimum matters more
	}
	tsvTime, err := best(iters, runtime.GC, func() error {
		_, err := kg.ReadTriples(bytes.NewReader(tsv.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	snapTime, err := best(iters, runtime.GC, func() error {
		_, err := kg.ReadSnapshot(bytes.NewReader(snap.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	art.add("cold-start", "tsv parse + index build", map[string]float64{
		"bytes": float64(tsv.Len()), "load_us": us(tsvTime), "iters": float64(iters)})
	values := map[string]float64{
		"bytes": float64(snap.Len()), "load_us": us(snapTime), "iters": float64(iters)}
	if snapTime > 0 {
		values["speedup"] = float64(tsvTime) / float64(snapTime)
	}
	art.add("cold-start", "snapshot", values)
	return nil
}

// ingestDelta builds a synthetic delta against g: size edges, half
// linking existing nodes, half attaching brand-new typed nodes (reusing
// existing predicates so the trained space still covers the commit).
func ingestDelta(g *kg.Graph, size int, seed int64) (*kg.Delta, error) {
	rng := rand.New(rand.NewSource(seed))
	d := kg.NewDelta(g)
	preds := g.Predicates()
	n := g.NumNodes()
	for i := 0; i < size; i++ {
		pred := preds[rng.Intn(len(preds))]
		if i%2 == 0 {
			if _, err := d.AddEdge(kg.NodeID(rng.Intn(n)), kg.NodeID(rng.Intn(n)), pred); err != nil {
				return nil, err
			}
			continue
		}
		node, err := d.AddNode(fmt.Sprintf("ingested_%d_%d", seed, i), "IngestedThing")
		if err != nil {
			return nil, err
		}
		if _, err := d.AddEdge(node, kg.NodeID(rng.Intn(n)), pred); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// measureCommit times Delta.Commit for one delta size (averaged; a fresh
// delta is built per iteration, untimed, since deltas are single-shot).
func measureCommit(art *Artifact, g *kg.Graph, size int, short bool) error {
	iters := 7
	if short {
		iters = 3
	}
	var h Hist
	var newNodes int
	for i := 0; i < iters; i++ {
		d, err := ingestDelta(g, size, int64(1000+i))
		if err != nil {
			return err
		}
		newNodes = d.AddedNodes()
		_ = h.Time(func() error { d.Commit(); return nil })
	}
	avg := us(h.Mean())
	art.add("commit", fmt.Sprintf("%d edges", size), map[string]float64{
		"delta_edges": float64(size),
		"new_nodes":   float64(newNodes),
		"commit_us":   avg,
		"per_edge_us": avg / float64(size),
	})
	return nil
}

// measureLive runs concurrent search clients against a serving engine
// while an applier publishes delta commits: the QPS under generation
// churn, with every request completing against a consistent snapshot.
func measureLive(ctx context.Context, art *Artifact, env *Env, short bool) error {
	qs, err := serveQueries(env)
	if err != nil {
		return err
	}
	const clients = 4
	duration := 1500 * time.Millisecond
	if short {
		duration = 400 * time.Millisecond
	}
	opts := env.SearchOptions(10)
	// The applier reuses the trained space: ingestDelta only adds edges
	// over existing predicates, so the predicate set is stable.
	srv := serve.New(env.Engine, serve.Config{
		Queue: 4 * clients,
		Build: func(g *kg.Graph) (*core.Engine, error) {
			return core.NewEngine(g, env.Space, env.Dataset.Library)
		},
	})

	// The applier is not load: it commits on its own clock beside the
	// Drive clients until their window closes.
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	applied := make(chan error, 1)
	commits := 0
	go func() {
		for seed := int64(1); ctx.Err() == nil; seed++ {
			d, err := ingestDelta(srv.Engine().Graph(), 50, 5000+seed)
			if err == nil {
				_, err = srv.Apply(d)
			}
			if err != nil {
				applied <- err
				return
			}
			commits++
			sleep(ctx, 20*time.Millisecond)
		}
		applied <- nil
	}()
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(int64(77 + c)))
	}
	s := Drive(ctx, Load{Clients: clients, Measure: duration}, func(ctx context.Context, c, _ int) error {
		_, err := srv.Search(ctx, qs[rngs[c].Intn(len(qs))], opts)
		return err
	})
	stop()
	if err := <-applied; err != nil {
		return err
	}
	if s.Err != nil {
		return s.Err
	}
	st := srv.Stats()
	art.add("live", "search-while-ingest", map[string]float64{
		"commits":       float64(commits),
		"generation":    float64(st.Generation),
		"result_hits":   float64(st.ResultHits),
		"pipeline_runs": float64(st.PipelineRuns),
	}).Sample = &s
	return nil
}
