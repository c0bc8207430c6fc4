// Hotpath experiment: before/after micro-benchmarks of the allocation-lean,
// index-backed query hot path against the preserved seed implementations
// (transform.MatchNodeScan, semgraph.ScanWeighter, astar.LegacySearcher).
// Each pair measures the same work with the same fixtures, so the deltas
// isolate the arena/index refactor. Run via `go run ./cmd/kgbench -exp
// hotpath` (writes BENCH_hotpath.json) or the BenchmarkAStarNext /
// BenchmarkNodeMax / BenchmarkMatchNode / BenchmarkSearchEndToEnd
// benchmarks at the repository root.
package bench

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"semkg/internal/astar"
	"semkg/internal/core"
	"semkg/internal/datagen"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/semgraph"
	"semkg/internal/ta"
)

// compiledSub is one sub-query compiled to searcher inputs.
type compiledSub struct {
	sub   astar.SubQuery
	preds []string
}

// matchEstimator adapts a φ-resolution function to query.CostEstimator;
// the before side plugs in the seed linear scans, the after side the
// memoized indexed matcher.
type matchEstimator struct {
	match func(name, typeName string) []kg.NodeID
	g     *kg.Graph
}

func (e matchEstimator) AnchorCount(name, typeName string) int {
	return len(e.match(name, typeName))
}
func (e matchEstimator) AvgDegree() float64 { return e.g.AvgDegree() }

// compileSubQueries decomposes q and resolves its φ sets the way
// core.Engine.buildSearchers does. With scan=true every resolution goes
// through the seed linear scans (the "before" side); the two sides produce
// identical sub-queries by the index/scan equivalence property.
func compileSubQueries(eng *core.Engine, maxHops int, q *query.Graph, scan bool) ([]compiledSub, *query.Decomposition, error) {
	m := eng.Matcher()
	match := m.MatchNodeScan
	if !scan {
		match = m.Memo().MatchNode
	}
	est := matchEstimator{match, eng.Graph()}
	d, err := query.Decompose(q, query.Options{Estimator: est, MaxHops: maxHops})
	if err != nil {
		return nil, nil, err
	}
	var out []compiledSub
	for _, sub := range d.Subs {
		anchorNode, _ := q.NodeByID(sub.Anchor())
		anchors := match(anchorNode.Name, anchorNode.Type)
		if len(anchors) == 0 {
			return nil, nil, fmt.Errorf("bench: sub-query anchor %q unmatched", sub.Anchor())
		}
		endSets := make([]map[kg.NodeID]bool, sub.Len())
		for i := 1; i < len(sub.NodeIDs); i++ {
			n, _ := q.NodeByID(sub.NodeIDs[i])
			ids := match(n.Name, n.Type)
			if len(ids) == 0 {
				return nil, nil, fmt.Errorf("bench: sub-query node %q unmatched", sub.NodeIDs[i])
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
	return out, d, nil
}

// legacyStream resumes a LegacySearcher after its prefetched matches, like
// core's resumeStream.
type legacyStream struct {
	buf    []astar.Match
	pos    int
	search *astar.LegacySearcher
}

func (r *legacyStream) Next() (astar.Match, bool) {
	if r.pos < len(r.buf) {
		m := r.buf[r.pos]
		r.pos++
		return m, true
	}
	return r.search.Next()
}

// renderLegacyAnswers replicates core.Engine.renderAnswers so the legacy
// pipeline does the same answer-materialization work the seed engine did
// (names, path steps, bindings) — without it the end-to-end comparison
// would unfairly charge rendering to the engine side only.
func renderLegacyAnswers(env *Env, finals []ta.Final, d *query.Decomposition) []core.Answer {
	g := env.Dataset.Graph
	answers := make([]core.Answer, len(finals))
	for i, f := range finals {
		a := core.Answer{
			Pivot:     f.Pivot,
			PivotName: g.NodeName(f.Pivot),
			Score:     f.Score,
			Bindings:  make(map[string]string),
		}
		for pi, part := range f.Parts {
			sm := core.SubMatch{PSS: part.PSS}
			for _, eid := range part.Edges {
				edge := g.EdgeAt(eid)
				sm.Steps = append(sm.Steps, core.PathStep{
					FromName:  g.NodeName(edge.Src),
					Predicate: g.PredName(edge.Pred),
					ToName:    g.NodeName(edge.Dst),
				})
			}
			a.Parts = append(a.Parts, sm)
			sub := d.Subs[pi]
			bind := func(qid string, u kg.NodeID) {
				if _, taken := a.Bindings[qid]; !taken {
					a.Bindings[qid] = g.NodeName(u)
				}
			}
			bind(sub.NodeIDs[0], part.Nodes[0])
			for s, pos := range part.SegEnds {
				bind(sub.NodeIDs[s+1], part.Nodes[pos])
			}
		}
		answers[i] = a
	}
	return answers
}

// runLegacySearch replays the seed Engine.Search exact (non-TBQ) pipeline:
// scan-based φ resolution, per-call ScanWeighter rows, LegacySearcher per
// sub-query with concurrent prefetch, TA assembly, and answer rendering.
func runLegacySearch(env *Env, q *query.Graph, k int) ([]core.Answer, []ta.Final, error) {
	subs, d, err := compileSubQueries(env.Engine, env.Cfg.MaxHops, q, true)
	if err != nil {
		return nil, nil, err
	}
	sopts := astar.Options{Tau: env.Cfg.Tau, MaxHops: env.Cfg.MaxHops}
	searchers := make([]*astar.LegacySearcher, len(subs))
	for i, cs := range subs {
		w, err := semgraph.NewScanWeighter(env.Dataset.Graph, env.Space, cs.preds)
		if err != nil {
			return nil, nil, err
		}
		searchers[i] = astar.NewLegacySearcher(env.Dataset.Graph, w, cs.sub, sopts)
	}
	prefetched := make([][]astar.Match, len(searchers))
	var wg sync.WaitGroup
	for i, s := range searchers {
		wg.Add(1)
		go func(i int, s *astar.LegacySearcher) {
			defer wg.Done()
			for len(prefetched[i]) < k {
				m, ok := s.Next()
				if !ok {
					break
				}
				prefetched[i] = append(prefetched[i], m)
			}
		}(i, s)
	}
	wg.Wait()
	streams := make([]ta.Stream, len(searchers))
	for i := range searchers {
		streams[i] = &legacyStream{buf: prefetched[i], search: searchers[i]}
	}
	finals, _ := ta.Assemble(streams, k)
	return renderLegacyAnswers(env, finals, d), finals, nil
}

// BenchCase is one before/after hotpath micro-benchmark pair. Before runs
// the preserved seed implementation, After the index/arena-backed one.
type BenchCase struct {
	Name   string
	Before func(b *testing.B)
	After  func(b *testing.B)
}

// HotpathCases builds the four before/after pairs on the environment's
// first simple query (plus a medium query for end-to-end coverage of
// multi-sub-query decompositions).
func HotpathCases(env *Env) ([]BenchCase, error) {
	g := env.Dataset.Graph
	q := env.Dataset.Simple[0]
	subs, _, err := compileSubQueries(env.Engine, env.Cfg.MaxHops, q.Graph, false)
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

	// side wraps one side's body as a benchmark. The body reports how much
	// it found; finding nothing fails the run, since a side that does no
	// work would win every comparison.
	side := func(body func() (int, error)) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := body()
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("side found nothing")
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
	// boundMass sums the m(u) bound over every node, rounded up.
	boundMass := func(w interface {
		NodeMax(u kg.NodeID, seg int) float64
	}) int {
		acc := 0.0
		for u := 0; u < g.NumNodes(); u++ {
			acc += w.NodeMax(kg.NodeID(u), 0)
		}
		return int(math.Ceil(acc))
	}
	matchAll := func(match func(name, typeName string) []kg.NodeID) func() (int, error) {
		return func() (int, error) {
			total := 0
			for _, pr := range probes {
				total += len(match(pr[0], pr[1]))
			}
			return total, nil
		}
	}
	m := env.Engine.Matcher()

	return []BenchCase{
		{
			Name: "AStarNext",
			Before: side(func() (int, error) {
				w, err := semgraph.NewScanWeighter(g, env.Space, cs.preds)
				if err != nil {
					return 0, err
				}
				return drain(astar.NewLegacySearcher(g, w, cs.sub, sopts).Next), nil
			}),
			After: side(func() (int, error) {
				w, err := semgraph.NewWeighterCached(rows, cs.preds)
				if err != nil {
					return 0, err
				}
				return drain(astar.NewSearcher(g, w, cs.sub, sopts).Next), nil
			}),
		},
		{
			Name: "NodeMax",
			Before: side(func() (int, error) {
				w, err := semgraph.NewScanWeighter(g, env.Space, cs.preds)
				if err != nil {
					return 0, err
				}
				return boundMass(w), nil
			}),
			After: side(func() (int, error) {
				w, err := semgraph.NewWeighterCached(rows, cs.preds)
				if err != nil {
					return 0, err
				}
				return boundMass(w), nil
			}),
		},
		{Name: "MatchNode", Before: side(matchAll(m.MatchNodeScan)), After: side(matchAll(m.MatchNode))},
		{
			Name: "SearchEndToEnd",
			Before: side(func() (int, error) {
				answers, _, err := runLegacySearch(env, q.Graph, 20)
				return len(answers), err
			}),
			After: side(func() (int, error) {
				res, err := env.Engine.Search(context.Background(), q.Graph, env.SearchOptions(20))
				if err != nil {
					return 0, err
				}
				return len(res.Answers), nil
			}),
		},
	}, nil
}

// runHotpath measures every before/after pair with testing.Benchmark: two
// rows per pair, the after row carrying the speedup (before ns / after
// ns) and alloc_ratio (before allocs / after allocs). The before sides
// stay live because the equivalence suites keep their code as reference.
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
	stat := func(r testing.BenchmarkResult) map[string]float64 {
		return map[string]float64{
			"ns_per_op":     float64(r.NsPerOp()),
			"allocs_per_op": float64(r.AllocsPerOp()),
			"bytes_per_op":  float64(r.AllocedBytesPerOp()),
		}
	}
	for _, c := range cases {
		before, after := stat(testing.Benchmark(c.Before)), stat(testing.Benchmark(c.After))
		if after["ns_per_op"] > 0 {
			after["speedup"] = before["ns_per_op"] / after["ns_per_op"]
		}
		if after["allocs_per_op"] > 0 {
			after["alloc_ratio"] = before["allocs_per_op"] / after["allocs_per_op"]
		}
		art.add("hotpath", c.Name+"/before", before)
		art.add("hotpath", c.Name+"/after", after)
	}
	return art, nil
}
