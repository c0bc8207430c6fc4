// Hotpath experiment: micro-benchmarks of the allocation-lean,
// index-backed query hot path — a full A* drain, the m(u) bound over
// every node, φ resolution over a probe battery, and one exact query end
// to end. The seed implementations these were first measured against are
// deleted; their last measured numbers are the frozen */before rows of
// the committed BENCH_hotpath.json. Run via `go run ./cmd/kgbench -exp
// hotpath` or the BenchmarkAStarNext / BenchmarkNodeMax /
// BenchmarkMatchNode / BenchmarkSearchEndToEnd benchmarks at the
// repository root.
package bench

import (
	"context"
	"math"
	"testing"

	"semkg/internal/astar"
	"semkg/internal/datagen"
	"semkg/internal/kg"
	"semkg/internal/semgraph"
)

// BenchCase is one hotpath micro-benchmark.
type BenchCase struct {
	Name string
	Run  func(b *testing.B)
}

// HotpathCases builds the four micro-benchmarks on the environment's
// first simple query.
func HotpathCases(env *Env) ([]BenchCase, error) {
	g := env.Dataset.Graph
	q := env.Dataset.Simple[0]
	plan, err := env.Engine.Compile(q.Graph, env.SearchOptions(20))
	if err != nil {
		return nil, err
	}
	// An uncompiled plan fails here rather than inside a timed body.
	if _, err := env.Engine.Searcher(plan, 0); err != nil {
		return nil, err
	}

	// Node-matching probes: names and types with exact, abbreviated,
	// initials, and miss outcomes, exercising the fallback paths.
	var probes [][2]string
	for _, gq := range env.Dataset.Simple {
		for _, n := range gq.Graph.Nodes {
			probes = append(probes, [2]string{n.Name, n.Type})
		}
	}
	probes = append(probes,
		[2]string{"", "Automobile"},
		[2]string{"no_such_entity_name", ""},
	)

	// bench wraps a body as a benchmark. The body reports how much it
	// found; finding nothing fails the run, since a body that does no work
	// would beat every earlier row.
	bench := func(body func() (int, error)) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := body()
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("benchmark body found nothing")
				}
			}
		}
	}
	drain := func(next func() (astar.Match, bool)) int {
		n := 0
		for {
			if _, ok := next(); !ok {
				return n
			}
			n++
		}
	}
	m := env.Engine.Matcher()

	return []BenchCase{
		{"AStarNext", bench(func() (int, error) {
			s, err := env.Engine.Searcher(plan, 0)
			if err != nil {
				return 0, err
			}
			return drain(s.Next), nil
		})},
		// The m(u) bound of the query's one edge summed over every node,
		// rounded up.
		{"NodeMax", bench(func() (int, error) {
			w, err := semgraph.NewWeighterCached(env.Engine.Rows(), []string{q.Graph.Edges[0].Predicate})
			if err != nil {
				return 0, err
			}
			acc := 0.0
			for u := 0; u < g.NumNodes(); u++ {
				acc += w.NodeMax(kg.NodeID(u), 0)
			}
			return int(math.Ceil(acc)), nil
		})},
		{"MatchNode", bench(func() (int, error) {
			total := 0
			for _, pr := range probes {
				total += len(m.MatchNode(pr[0], pr[1]))
			}
			return total, nil
		})},
		{"SearchEndToEnd", bench(func() (int, error) {
			res, err := env.Engine.Search(context.Background(), q.Graph, env.SearchOptions(20))
			if err != nil {
				return 0, err
			}
			return len(res.Answers), nil
		})},
	}, nil
}

// runHotpath measures every case with testing.Benchmark, one row each.
// The rows keep their "/after" names: each pairs with the frozen
// "/before" row of the committed artifact, measured on the seed
// implementation this code replaced.
func runHotpath(_ context.Context, p Params) (*Artifact, error) {
	env, err := p.env(datagen.DBpediaLike)
	if err != nil {
		return nil, err
	}
	cases, err := HotpathCases(env)
	if err != nil {
		return nil, err
	}
	art := env.artifact("hotpath")
	for _, c := range cases {
		r := testing.Benchmark(c.Run)
		art.add("hotpath", c.Name+"/after", map[string]float64{
			"ns_per_op":     float64(r.NsPerOp()),
			"allocs_per_op": float64(r.AllocsPerOp()),
			"bytes_per_op":  float64(r.AllocedBytesPerOp()),
		})
	}
	return art, nil
}
