// Benchmark entry points: one sub-benchmark per table and figure of the
// paper's evaluation (Section VII), iterated from the kgbench experiment
// registry, plus micro-benchmarks of the core building blocks and of the
// query hot path. Each experiment benchmark regenerates its artifact
// on a cached environment; run the full suite with
//
//	go test -bench=. -benchmem
//
// and the standalone harness with richer output via
//
//	go run ./cmd/kgbench -exp all
//	go run ./cmd/kgbench -exp hotpath   # writes BENCH_hotpath.json
package semkg_test

import (
	"context"
	"testing"

	"semkg/internal/bench"
	"semkg/internal/core"
	"semkg/internal/datagen"
	"semkg/internal/embed"
)

const benchScale = 0.25

var benchEmbed = embed.Config{Dim: 48, Epochs: 100, Seed: 3}

func benchEnv(b *testing.B, p datagen.Profile) *bench.Env {
	b.Helper()
	env, err := bench.Cached(bench.Config{Profile: p, Embed: benchEmbed})
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkExperiment regenerates every paper artifact of the registry
// (Tables I-X, Figures 12-17, the ablation) as one sub-benchmark each:
// `-bench 'Experiment/table1'` is Table I. The system artifacts
// (hotpath, serve, ...) are wall-clock experiments of their own and run
// through kgbench only.
func BenchmarkExperiment(b *testing.B) {
	params := bench.Params{Scale: benchScale, Embed: benchEmbed}
	for _, e := range bench.Experiments {
		if !e.Paper {
			continue
		}
		b.Run(e.Name, func(b *testing.B) {
			// The first run trains and caches the environments.
			if _, err := e.Run(context.Background(), params); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if art, err := e.Run(context.Background(), params); err != nil || len(art.Rows) == 0 {
					b.Fatalf("%s: %d rows, err %v", e.Name, len(art.Rows), err)
				}
			}
		})
	}
}

// --- micro-benchmarks ---------------------------------------------------

// BenchmarkSGQQuery measures one end-to-end SGQ query (decompose, A*
// search, TA assembly) on the benchmark world.
func BenchmarkSGQQuery(b *testing.B) {
	env := benchEnv(b, datagen.DBpediaLike(benchScale))
	q := env.Dataset.Simple[0]
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Engine.Search(ctx, q.Graph, env.SearchOptions(20)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTBQQuery measures one time-bounded query.
func BenchmarkTBQQuery(b *testing.B) {
	env := benchEnv(b, datagen.DBpediaLike(benchScale))
	q := env.Dataset.Simple[0]
	ctx := context.Background()
	opts := env.SearchOptions(20)
	opts.TimeBound = 500 * 1000 // 500µs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Engine.Search(ctx, q.Graph, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransETraining measures one full TransE training run on a small
// world (the offline phase).
func BenchmarkTransETraining(b *testing.B) {
	ds := datagen.Generate(datagen.DBpediaLike(0.1))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := embed.TrainTransE(ctx, ds.Graph, embed.Config{Dim: 32, Epochs: 20, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineGraB measures one GraB baseline query for comparison
// with BenchmarkSGQQuery.
func BenchmarkBaselineGraB(b *testing.B) {
	env := benchEnv(b, datagen.DBpediaLike(benchScale))
	sys := env.Baselines(0.5)[0] // GraB
	q := env.Dataset.Simple[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(q, 20)
	}
}

// hotpathCase runs one micro-benchmark of the hotpath experiment.
// kgbench -exp hotpath aggregates the same cases into BENCH_hotpath.json.
func hotpathCase(b *testing.B, name string) {
	env := benchEnv(b, datagen.DBpediaLike(benchScale))
	cases, err := bench.HotpathCases(env)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cases {
		if c.Name == name {
			c.Run(b)
			return
		}
	}
	b.Fatalf("no hotpath case %q", name)
}

// BenchmarkAStarNext measures a full A* drain: weighter construction plus
// search to exhaustion on the arena-backed searcher.
func BenchmarkAStarNext(b *testing.B) { hotpathCase(b, "AStarNext") }

// BenchmarkNodeMax measures the m(u) bound over every node, computed from
// kg.NodePreds on each call.
func BenchmarkNodeMax(b *testing.B) { hotpathCase(b, "NodeMax") }

// BenchmarkMatchNode measures φ resolution over a probe battery on the
// normalized-name/initials/prefix indexes.
func BenchmarkMatchNode(b *testing.B) { hotpathCase(b, "MatchNode") }

// BenchmarkSearchEndToEnd measures one exact top-20 query end to end.
func BenchmarkSearchEndToEnd(b *testing.B) { hotpathCase(b, "SearchEndToEnd") }

// BenchmarkEngineBuild measures engine construction (matcher + space
// wiring) excluding training.
func BenchmarkEngineBuild(b *testing.B) {
	env := benchEnv(b, datagen.DBpediaLike(benchScale))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewEngine(env.Dataset.Graph, env.Space, env.Dataset.Library); err != nil {
			b.Fatal(err)
		}
	}
}
