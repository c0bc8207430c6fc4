// Ingest experiment: the storage layer's production metrics. Four
// measurements: cold-start load time of the binary snapshot codec against
// the TSV parse + index build it replaces, delta-commit latency as a
// function of delta size, the cost of a chain of consecutive commits on a
// large world (layer merges included), and end-to-end search throughput
// while a background applier publishes commits through serve.Apply
// (generation swaps racing live queries).
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
		if err := measureCommit(art, env.Dataset.Graph, size); err != nil {
			return nil, err
		}
	}
	chainWorlds := []int{100_000, 1_000_000}
	if p.Short {
		chainWorlds = chainWorlds[:1]
	}
	for _, nodes := range chainWorlds {
		if err := measureCommitChain(art, nodes); err != nil {
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

// measureCommit times Delta.Commit for one delta size: one untimed
// warm-up commit, then the median of 31, each on a fresh delta (deltas
// are single-shot) built untimed and preceded by a collection, so the
// rows rank delta sizes rather than GC cycles and cold caches. Every
// commit is on the same base, so the sample is identically distributed.
func measureCommit(art *Artifact, g *kg.Graph, size int) error {
	const commits = 31
	var h Hist
	var newNodes int
	for i := 0; i <= commits; i++ {
		d, err := ingestDelta(g, size, int64(1000+i))
		if err != nil {
			return err
		}
		newNodes = d.AddedNodes()
		runtime.GC()
		if i == 0 {
			d.Commit() // warm-up
			continue
		}
		_ = h.Time(func() error { d.Commit(); return nil })
	}
	med := us(h.Quantile(0.5))
	art.add("commit", fmt.Sprintf("%d edges", size), map[string]float64{
		"delta_edges": float64(size),
		"new_nodes":   float64(newNodes),
		"commits":     commits,
		"commit_us":   med,
		"per_edge_us": med / float64(size),
	})
	return nil
}

// measureCommitChain commits 100 consecutive batches of the serving
// benchmark's ingest shape — 100 new nodes, each typed with an existing
// type and linked to an existing node by an existing predicate — each on
// the previous commit, over the large world of the given size. Unlike
// measureCommit it sees what a live server pays: the node-name index
// grows by one layer per commit and layers merge as they fill (counted
// from kg.Graph.NameLayers). Allocation is measured per commit, outside
// the timed region.
func measureCommitChain(art *Artifact, nodes int) error {
	const commits, batch = 100, 100
	g := datagen.GenerateLarge(datagen.LargeWorld(nodes))
	rng := rand.New(rand.NewSource(int64(nodes)))
	var h Hist
	var ms0, ms1 runtime.MemStats
	var allocated uint64
	merges := 0
	for c := 0; c < commits; c++ {
		d := kg.NewDelta(g)
		for i := 0; i < batch; i++ {
			id, err := d.AddNode(fmt.Sprintf("Bench Ingest %d %d", c, i), g.TypeName(kg.TypeID(rng.Intn(g.NumTypes()))))
			if err == nil {
				_, err = d.AddEdge(id, kg.NodeID(rng.Intn(nodes)), g.PredName(kg.PredID(rng.Intn(g.NumPredicates()))))
			}
			if err != nil {
				return err
			}
		}
		layers := g.NameLayers()
		runtime.ReadMemStats(&ms0)
		_ = h.Time(func() error { g = d.Commit(); return nil })
		runtime.ReadMemStats(&ms1)
		allocated += ms1.TotalAlloc - ms0.TotalAlloc
		merges += layers + 1 - g.NameLayers() // a commit adds one layer, a merge removes one
	}
	art.add("commit-chain", fmt.Sprintf("%d nodes", nodes), map[string]float64{
		"nodes":               float64(nodes),
		"commits":             commits,
		"batch_nodes":         batch,
		"batch_edges":         batch,
		"mean_commit_us":      us(h.Mean()),
		"max_commit_us":       us(h.Quantile(1)),
		"alloc_mb_per_commit": float64(allocated) / commits / (1 << 20),
		"merges":              float64(merges),
		"name_layers":         float64(g.NameLayers()),
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
