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
	"fmt"
	"math"
	"testing"

	"semkg/internal/astar"
	"semkg/internal/core"
	"semkg/internal/datagen"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/semgraph"
)

// compiledSub is one sub-query compiled to searcher inputs.
type compiledSub struct {
	sub   astar.SubQuery
	preds []string
}

// matchEstimator adapts a φ-resolution function to query.CostEstimator.
type matchEstimator struct {
	match func(name, typeName string) []kg.NodeID
	g     *kg.Graph
}

func (e matchEstimator) AnchorCount(name, typeName string) int {
	return len(e.match(name, typeName))
}
func (e matchEstimator) AvgDegree() float64 { return e.g.AvgDegree() }

// compileSubQueries decomposes q and resolves its φ sets the way
// core.Engine.Compile does, down to searcher inputs.
func compileSubQueries(eng *core.Engine, maxHops int, q *query.Graph) ([]compiledSub, error) {
	match := eng.Matcher().Memo().MatchNode
	est := matchEstimator{match, eng.Graph()}
	d, err := query.Decompose(q, query.Options{Estimator: est, MaxHops: maxHops})
	if err != nil {
		return nil, err
	}
	var out []compiledSub
	for _, sub := range d.Subs {
		anchorNode, _ := q.NodeByID(sub.Anchor())
		anchors := match(anchorNode.Name, anchorNode.Type)
		if len(anchors) == 0 {
			return nil, fmt.Errorf("bench: sub-query anchor %q unmatched", sub.Anchor())
		}
		endSets := make([]map[kg.NodeID]bool, sub.Len())
		for i := 1; i < len(sub.NodeIDs); i++ {
			n, _ := q.NodeByID(sub.NodeIDs[i])
			ids := match(n.Name, n.Type)
			if len(ids) == 0 {
				return nil, fmt.Errorf("bench: sub-query node %q unmatched", sub.NodeIDs[i])
			}
			set := make(map[kg.NodeID]bool, len(ids))
			for _, id := range ids {
				set[id] = true
			}
			endSets[i-1] = set
		}
		preds := make([]string, sub.Len())
		for i, edge := range sub.Edges {
			preds[i] = edge.Predicate
		}
		out = append(out, compiledSub{
			sub:   astar.SubQuery{Anchors: anchors, EndSets: endSets},
			preds: preds,
		})
	}
	return out, nil
}

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
	subs, err := compileSubQueries(env.Engine, env.Cfg.MaxHops, q.Graph)
	if err != nil {
		return nil, err
	}
	cs := subs[0]
	sopts := astar.Options{Tau: env.Cfg.Tau, MaxHops: env.Cfg.MaxHops}
	rows, err := semgraph.NewRowCache(g, env.Space)
	if err != nil {
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
	weighter := func() (*semgraph.Weighter, error) { return semgraph.NewWeighterCached(rows, cs.preds) }
	m := env.Engine.Matcher()

	return []BenchCase{
		{"AStarNext", bench(func() (int, error) {
			w, err := weighter()
			if err != nil {
				return 0, err
			}
			return drain(astar.NewSearcher(g, w, cs.sub, sopts).Next), nil
		})},
		// The m(u) bound summed over every node, rounded up.
		{"NodeMax", bench(func() (int, error) {
			w, err := weighter()
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
