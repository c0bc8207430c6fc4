// Command kgbench regenerates the paper's evaluation tables and figures
// (Section VII) on the synthetic dataset substitutes. Each experiment
// prints an aligned text table; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
//
// Usage:
//
//	kgbench -exp all -scale 0.3
//	kgbench -exp table1
//	kgbench -exp fig12 -scale 0.5 -epochs 150
//	kgbench -exp hotpath -out BENCH_hotpath.json
//
// The hotpath experiment is not part of "all": it benchmarks the engine's
// index/arena hot path against the preserved seed implementations and
// writes the before/after comparison to a JSON artifact.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"semkg/internal/bench"
	"semkg/internal/datagen"
	"semkg/internal/embed"
)

// artifact is an experiment that writes a JSON artifact and renders a
// table (bench.HotpathResult, bench.ServeResult).
type artifact interface {
	WriteJSON(path string) error
	Render() *bench.Table
}

func main() {
	exp := flag.String("exp", "all",
		"experiment: table1 | fig12 | fig13 | fig14 | fig15 | table5 | table6 | table7 | noise | table9 | table10 | ablation | hotpath | serve | ingest | shard | replica | keyword | batch | load | all (hotpath, serve, ingest, shard, replica, keyword, batch and load run separately)")
	scale := flag.Float64("scale", 0.3, "dataset scale")
	dim := flag.Int("dim", 48, "embedding dimension")
	epochs := flag.Int("epochs", 120, "embedding epochs")
	tau := flag.Float64("tau", 0.7, "pss threshold τ")
	out := flag.String("out", "", "output artifact for -exp hotpath/serve/ingest (default BENCH_<exp>.json)")
	short := flag.Bool("short", false, "trim iteration counts and world sizes (CI smoke runs of the artifact experiments)")
	flag.Parse()

	embedCfg := embed.Config{Dim: *dim, Epochs: *epochs, Seed: 3}
	envFor := func(p datagen.Profile) *bench.Env {
		env, err := bench.Cached(bench.Config{Profile: p, Embed: embedCfg, Tau: *tau})
		if err != nil {
			fmt.Fprintf(os.Stderr, "kgbench: %v\n", err)
			os.Exit(1)
		}
		return env
	}
	dbp := func() *bench.Env { return envFor(datagen.DBpediaLike(*scale)) }

	show := func(tables ...*bench.Table) {
		for _, t := range tables {
			fmt.Println(t)
		}
	}
	// runArtifact runs an artifact-writing experiment (hotpath, serve):
	// measure, write the JSON artifact (default BENCH_<name>.json), render.
	runArtifact := func(name, path string, run func() (artifact, error)) {
		if path == "" {
			path = fmt.Sprintf("BENCH_%s.json", name)
		}
		res, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "kgbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if err := res.WriteJSON(path); err != nil {
			fmt.Fprintf(os.Stderr, "kgbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		show(res.Render())
		fmt.Printf("wrote %s\n", path)
	}
	run := func(name string) {
		switch name {
		case "table1":
			show(bench.RunTable1(dbp()).Render())
		case "fig12":
			show(bench.RunFigure(dbp(), nil).Render()...)
		case "fig13":
			show(bench.RunFigure(envFor(datagen.FreebaseLike(*scale)), nil).Render()...)
		case "fig14":
			show(bench.RunFigure(envFor(datagen.YAGO2Like(*scale)), nil).Render()...)
		case "fig15":
			show(bench.RunFig15(dbp(), 0, nil).Render())
		case "table5":
			res, err := bench.RunTable5(dbp(), nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kgbench: table5: %v\n", err)
				return
			}
			show(res.Render())
		case "table6":
			show(bench.RunTable6(dbp()).Render())
		case "table7":
			envs := []*bench.Env{
				dbp(),
				envFor(datagen.FreebaseLike(*scale)),
				envFor(datagen.YAGO2Like(*scale)),
			}
			show(bench.RunTable7(envs, 7).Render())
		case "noise":
			show(bench.RunNoise(dbp(), 0, nil).Render())
		case "table9":
			res, err := bench.RunTable9([]float64{*scale * 0.4, *scale * 0.7, *scale}, nil, embedCfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kgbench: table9: %v\n", err)
				return
			}
			show(res.Render())
		case "table10":
			show(bench.RunTable10(dbp(), 0).Render())
		case "ablation":
			show(bench.RunAblation(dbp(), 0).Render())
		case "hotpath":
			runArtifact(name, *out, func() (artifact, error) { return bench.RunHotpath(dbp()) })
		case "serve":
			runArtifact(name, *out, func() (artifact, error) { return bench.RunServe(dbp()) })
		case "ingest":
			runArtifact(name, *out, func() (artifact, error) { return bench.RunIngest(dbp(), *short) })
		case "shard":
			// In-process scaling on the paper-scale dataset, then the
			// multi-process section: real subprocess shard servers behind
			// the HTTP coordinator on the generated large world.
			runArtifact(name, *out, func() (artifact, error) {
				res, err := bench.RunShard(dbp(), *short)
				if err != nil {
					return nil, err
				}
				res.Distributed, err = bench.RunDistShard(*short, nil)
				return res, err
			})
		case "replica":
			runArtifact(name, *out, func() (artifact, error) { return bench.RunReplica(dbp(), *short) })
		case "keyword":
			runArtifact(name, *out, func() (artifact, error) { return bench.RunKeyword(dbp(), *short) })
		case "batch":
			runArtifact(name, *out, func() (artifact, error) { return bench.RunBatch(dbp(), *short) })
		case "load":
			// The load harness generates its own large world (datagen
			// LargeWorld); -scale/-dim/-epochs/-tau do not apply.
			runArtifact(name, *out, func() (artifact, error) { return bench.RunLoad(*short) })
		default:
			fmt.Fprintf(os.Stderr, "kgbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	if *exp == "all" {
		for _, name := range []string{
			"table1", "fig12", "fig13", "fig14", "fig15",
			"table5", "table6", "table7", "noise", "table9", "table10", "ablation",
		} {
			fmt.Printf("=== %s ===\n", strings.ToUpper(name))
			run(name)
		}
		return
	}
	run(*exp)
}
