// Comparison: the semantic-guided search against the seven baselines of
// the paper's Table I on one generated benchmark, plus the
// effectiveness-vs-k series of Fig. 12 — two entries of the `kgbench`
// experiment registry, run at a small scale.
//
// Run with: go run ./examples/comparison
package main

import (
	"context"
	"fmt"
	"log"

	"semkg/internal/bench"
	"semkg/internal/embed"
)

func main() {
	params := bench.Params{Scale: 0.25, Embed: embed.Config{Dim: 48, Epochs: 100, Seed: 3}}
	for _, name := range []string{"table1", "fig12"} {
		exp, ok := bench.Lookup(name)
		if !ok {
			log.Fatalf("no experiment %q", name)
		}
		art, err := exp.Run(context.Background(), params)
		if err != nil {
			log.Fatal(err)
		}
		for _, t := range art.Render() {
			fmt.Println(t)
		}
	}
}
