// Sharded: scatter-gather execution over a partitioned knowledge graph.
// The example saves a generated world as a binary snapshot, cold-starts a
// sharded engine from it (the partition derives deterministically from
// the loaded graph), and streams a time-bounded query — the progress
// events arrive attributed to the shard whose search produced them, and
// the merged result carries the same answers the single engine returns.
//
// Run with: go run ./examples/sharded
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"semkg"
	"semkg/internal/datagen"
)

func main() {
	ctx := context.Background()
	ds := datagen.Generate(datagen.DBpediaLike(0.4))
	model, err := semkg.Train(ctx, ds.Graph, semkg.TrainConfig{Dim: 48, Epochs: 120, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	// Snapshot round trip: in production the snapshot lives on disk
	// (semkgd -snapshot g.snap -shards 4); the bytes are the same.
	var snapshot bytes.Buffer
	if err := semkg.SaveSnapshot(&snapshot, ds.Graph); err != nil {
		log.Fatal(err)
	}
	eng, err := semkg.NewShardedEngineFromSnapshot(&snapshot, model, ds.Library,
		semkg.ShardConfig{Shards: 4})
	if err != nil {
		log.Fatal(err)
	}
	st := eng.Deployment().Sharded
	fmt.Printf("partitioned %d nodes into %d shards (halo %d, replication %.1fx):\n",
		eng.Graph().NumNodes(), st.Shards, st.Halo, st.ReplicationFactor)
	for _, s := range st.PerShard {
		fmt.Printf("  shard %d: %5d nodes (%4d owned, %4d halo replicas), %5d edges\n",
			s.Index, s.Nodes, s.Owned, s.Replicated, s.Edges)
	}

	// A multi-sub-query (complex) query: each sub-query search fans out
	// across the shards; the merger reassembles one global top-k.
	q := ds.Complex[0]
	opts := semkg.Options{K: 10, Tau: 0.7, MaxHops: 4, TimeBound: 250 * time.Millisecond}
	stream, err := eng.Stream(ctx, q.Graph, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstreaming %s (k=%d, bound %s)\n\n", q.Name, opts.K, opts.TimeBound)
	for ev := range stream.Events() {
		switch e := ev.(type) {
		case semkg.ProgressEvent:
			// Per-update progress events arrive too; printing only each
			// (shard, sub) search's closing line keeps the log short.
			if e.Done {
				fmt.Printf("shard %d  sub %d  done with %d match(es)\n", e.Shard, e.Sub, e.Collected)
			}
		case semkg.PhaseEvent:
			fmt.Printf("phase %-8s %v\n", e.Phase, e.Collected)
		case semkg.TopKEvent:
			fmt.Printf("topk  round %-3d %d answer(s), L_k=%.3f U_max=%.3f\n",
				e.Round, len(e.Answers), e.LowerK, e.UpperMax)
		case semkg.ResultEvent:
			res := e.Result
			fmt.Printf("\nterminal: %d answer(s) in %s (approximate=%v)\n",
				len(res.Answers), res.Elapsed.Round(time.Microsecond), res.Approximate)
			for i, a := range res.Answers {
				if i >= 5 {
					fmt.Printf("    ... %d more\n", len(res.Answers)-i)
					break
				}
				fmt.Printf("%2d. %-28s score=%.3f\n", i+1, a.PivotName, a.Score)
			}
		}
	}

	fmt.Println("\nThe sharded engine is the same *semkg.Engine type as a whole-graph one:")
	fmt.Println("wrap it with semkg.NewServing (or run semkgd -shards 4) and the serving")
	fmt.Println("layer's caches, singleflight and admission control apply unchanged.")
}
