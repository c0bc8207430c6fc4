// Command kgbench regenerates the paper's evaluation tables and figures
// (Section VII) on the synthetic dataset substitutes, and the system
// artifacts (BENCH_<exp>.json). Every experiment comes from the one
// registry in internal/bench and prints aligned text tables; see
// DESIGN.md, "Evaluation harness", for the experiment index and the
// artifact schema.
//
// Usage:
//
//	kgbench -exp all -scale 0.3
//	kgbench -exp table1
//	kgbench -exp fig12 -scale 0.5 -epochs 150
//	kgbench -exp hotpath -out BENCH_hotpath.json
//
// "all" runs the twelve paper reproductions; the artifact experiments
// run one at a time and write their JSON artifact.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"semkg/internal/bench"
	"semkg/internal/embed"
)

func main() {
	var paper, artifacts []string
	for _, e := range bench.Experiments {
		if e.Paper {
			paper = append(paper, e.Name)
		} else {
			artifacts = append(artifacts, e.Name)
		}
	}
	exp := flag.String("exp", "all", fmt.Sprintf("experiment: %s | %s | all (%s run separately)",
		strings.Join(paper, " | "), strings.Join(artifacts, " | "), strings.Join(artifacts, ", ")))
	scale := flag.Float64("scale", 0.3, "dataset scale")
	dim := flag.Int("dim", 48, "embedding dimension")
	epochs := flag.Int("epochs", 120, "embedding epochs")
	tau := flag.Float64("tau", 0.7, "pss threshold τ")
	out := flag.String("out", "", "output artifact for -exp "+strings.Join(artifacts, "/")+" (default BENCH_<exp>.json)")
	short := flag.Bool("short", false, "trim iteration counts and world sizes (CI smoke runs of the artifact experiments)")
	flag.Parse()

	params := bench.Params{
		Scale: *scale,
		Embed: embed.Config{Dim: *dim, Epochs: *epochs, Seed: 3},
		Tau:   *tau,
		Short: *short,
	}
	names := []string{*exp}
	if *exp == "all" {
		names = paper
	}
	for _, name := range names {
		e, ok := bench.Lookup(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "kgbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		if *exp == "all" {
			fmt.Printf("=== %s ===\n", strings.ToUpper(name))
		}
		art, err := e.Run(context.Background(), params)
		path := ""
		if err == nil && !e.Paper {
			if path = *out; path == "" {
				path = fmt.Sprintf("BENCH_%s.json", name)
			}
			err = art.WriteJSON(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "kgbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		for _, t := range art.Render() {
			fmt.Println(t)
		}
		if path != "" {
			fmt.Printf("wrote %s\n", path)
		}
	}
}
