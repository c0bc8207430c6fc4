// Streaming: the anytime search API — the same time-bounded query as
// examples/timebounded, but consumed as a live event stream. Provisional
// top-k snapshots arrive with their TA lower/upper bounds while the
// search runs, so an interactive application can paint answers
// immediately and refine them as the bounds close (Section VI,
// Theorem 4 of the paper).
//
// Run with: go run ./examples/streaming
package main

import (
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
	eng, err := semkg.NewEngine(ds.Graph, model, ds.Library)
	if err != nil {
		log.Fatal(err)
	}

	// The hardest simple query: the one with the largest validation set.
	q := ds.Simple[0]
	for _, cand := range ds.Simple {
		if len(cand.Truth) > len(q.Truth) {
			q = cand
		}
	}
	opts := semkg.Options{K: len(q.Truth), Tau: 0.7, MaxHops: 4, TimeBound: 250 * time.Millisecond}

	st, err := eng.Stream(ctx, q.Graph, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streaming %s (k=%d, bound %s)\n\n", q.Name, opts.K, opts.TimeBound)
	for ev := range st.Events() {
		switch e := ev.(type) {
		case semkg.PhaseEvent:
			switch e.Phase {
			case semkg.PhaseAlert:
				fmt.Printf("phase %-8s  the %s deadline cut the search at %s\n",
					e.Phase, e.Projected.Round(time.Microsecond), e.Elapsed.Round(time.Microsecond))
			case semkg.PhaseAssemble:
				fmt.Printf("phase %-8s  prefetched %v matches per sub-query\n", e.Phase, e.Collected)
			default:
				fmt.Printf("phase %-8s\n", e.Phase)
			}
		case semkg.TopKEvent:
			fmt.Printf("topk  round %-3d  %d answer(s), L_k=%.3f  U_max=%.3f  gap=%.3f\n",
				e.Round, len(e.Answers), e.LowerK, e.UpperMax, e.UpperMax-e.LowerK)
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
	fmt.Println("\nThe provisional snapshots converge to the terminal ranking as the")
	fmt.Println("L_k/U_max gap closes — the wire form of Theorem 4's anytime refinement.")
}
