package oracle_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"semkg/internal/core"
	"semkg/internal/embed"
	"semkg/internal/keyword"
	"semkg/internal/kg"
	"semkg/internal/oracle"
	"semkg/internal/query"
	"semkg/internal/semgraph"
	"semkg/internal/serve"
	"semkg/internal/shard"
	"semkg/internal/tbq"
	"semkg/internal/transform"
)

// The differential property: on generated worlds, whatever deployment
// shape, search mode or ingest generation answers a query, the answer
// passes the oracle's comparison rule. The worlds are built to hit what
// an engine-vs-earlier-engine comparison cannot see: score ties at the
// k-th rank, names that resolve to several entities, MaxHops beyond a
// partition's halo.

var (
	kinds = []string{"Kind0", "Kind1", "Kind2", "Kind3"}
	preds = []string{"made", "built", "assembled", "owns", "near", "likes"}
)

// vectorOf gives every predicate name a fixed signed direction, so a
// graph that gained predicates through ingest keeps the old weights.
// "built" shares "made"'s vector: cosine 1, weight 1, and therefore ties.
func vectorOf(name string) embed.Vector {
	if name == "built" {
		name = "made"
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	v := make(embed.Vector, 6)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

func spaceFor(g *kg.Graph) (*embed.Space, error) {
	names := g.Predicates()
	vecs := make([]embed.Vector, len(names))
	for i, n := range names {
		vecs[i] = vectorOf(n)
	}
	return embed.NewSpace(names, vecs)
}

func library() *transform.Library {
	lib := transform.NewLibrary()
	lib.AddSynonyms("Gemini", "Twin One", "twin_one") // one name, two entities
	lib.AddSynonyms("Sort0", "Kind0")
	lib.AddAbbreviation("K1", "Kind1")
	return lib
}

func engineFor(g *kg.Graph) (*core.Engine, error) {
	sp, err := spaceFor(g)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(g, sp, library())
}

// oracleFor hands the oracle its plain inputs for g: the space, the
// library's expansion, and the engine-side predicate resolution (which is
// not under test here: exact name, else the most string-similar).
func oracleFor(t *testing.T, g *kg.Graph) oracle.World {
	t.Helper()
	sp, err := spaceFor(g)
	if err != nil {
		t.Fatal(err)
	}
	return oracle.World{G: g, Space: sp, Expand: library().Expand, Resolve: func(name string) kg.PredID {
		p, err := semgraph.ResolvePredicate(g, name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}}
}

// genGraph builds one random world: typed and untyped nodes under random
// edges (self-loops and parallel edges included), a hub whose eight
// spokes all hang off it by weight-1 edges (a tie group larger than any
// k below), and two twins whose names differ only in case and separators.
func genGraph(rng *rand.Rand) *kg.Graph {
	n := 28 + rng.Intn(10)
	b := kg.NewBuilder(n+16, 4*n)
	var ids []kg.NodeID
	for i := 0; i < n; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		if i%11 == 5 {
			kind = "" // untyped: matches by name whatever type the query gives
		}
		ids = append(ids, b.AddNode(fmt.Sprintf("Node_%02d", i), kind))
	}
	hub := b.AddNode("Hub", "Kind0")
	for i := 0; i < 8; i++ {
		spoke := b.AddNode(fmt.Sprintf("Spoke_%d", i), "Kind2")
		b.AddEdge(spoke, hub, preds[i%2]) // made / built alternately
		ids = append(ids, spoke)
	}
	ids = append(ids, hub, b.AddNode("Twin One", "Kind1"), b.AddNode("twin_one", "Kind1"))
	for i := 0; i < 3*len(ids); i++ {
		b.AddEdge(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], preds[rng.Intn(len(preds))])
	}
	return b.Build()
}

type testQuery struct {
	name string
	q    *query.Graph
	opts core.Options
}

// genQueries draws the query mix for g: fixed probes for the hard cases
// and random single-edge, chain, star and three-sub-query shapes.
func genQueries(rng *rand.Rand, g *kg.Graph) []testQuery {
	kind := func() string { return kinds[rng.Intn(len(kinds))] }
	pred := func() string { return preds[rng.Intn(len(preds))] }
	entity := func() query.Node {
		u := kg.NodeID(rng.Intn(g.NumNodes()))
		return query.Node{Name: g.NodeName(u), Type: g.TypeName(g.NodeType(u))}
	}
	target := func(id, typ string) query.Node { return query.Node{ID: id, Type: typ} }
	named := func(id string, n query.Node) query.Node { n.ID = id; return n }
	edge := func(from, to, p string) query.Edge { return query.Edge{From: from, To: to, Predicate: p} }
	one := func(x, a query.Node, p string) *query.Graph {
		return &query.Graph{Nodes: []query.Node{x, a}, Edges: []query.Edge{edge("x", "a", p)}}
	}

	qs := []testQuery{
		{"hub-ties", one(target("x", "Kind2"), named("a", query.Node{Name: "Hub", Type: "Kind0"}), "made"), core.Options{K: 3}},
		{"hub-ties-k5", one(target("x", "Kind2"), named("a", query.Node{Name: "Hub"}), "built"), core.Options{K: 5, MaxHops: 2}},
		{"twins", one(target("x", kind()), named("a", query.Node{Name: "Gemini", Type: "Kind1"}), pred()), core.Options{K: 10}},
		{"prefix", one(target("x", kind()), named("a", query.Node{Name: "Node_1"}), pred()), core.Options{K: 5}},
		{"initials", one(target("x", kind()), named("a", query.Node{Name: "to"}), pred()), core.Options{K: 5}},
		{"typo", one(target("x", kind()), named("a", entity()), "assembld"), core.Options{K: 5}},
		{"type-synonym", one(target("x", "Sort0"), named("a", entity()), pred()), core.Options{K: 5}},
		{"type-abbreviation", one(target("x", "K1"), named("a", entity()), pred()), core.Options{K: 5, Tau: 0.6}},
		{"no-match", one(target("x", kind()), named("a", query.Node{Name: "Zzz_nowhere"}), pred()), core.Options{K: 5}},
		{"deep", one(target("x", kind()), named("a", entity()), pred()), core.Options{K: 10, MaxHops: 4, Tau: 0.6}},
	}
	for i := 0; i < 3; i++ {
		qs = append(qs, testQuery{fmt.Sprintf("edge-%d", i), one(target("x", kind()), named("a", entity()), pred()),
			core.Options{K: 1 + 4*i, Tau: 0.4 + 0.2*float64(i%2)}})
	}
	for i := 0; i < 2; i++ {
		qs = append(qs,
			testQuery{fmt.Sprintf("chain-%d", i), &query.Graph{
				Nodes: []query.Node{named("a", entity()), target("y", kind()), target("x", kind())},
				Edges: []query.Edge{edge("a", "y", pred()), edge("y", "x", pred())},
			}, core.Options{K: 5}},
			testQuery{fmt.Sprintf("star-%d", i), &query.Graph{
				Nodes: []query.Node{named("a", entity()), target("x", kind()), named("b", entity())},
				Edges: []query.Edge{edge("a", "x", pred()), edge("x", "b", pred())},
			}, core.Options{K: 3 + 7*i}},
			testQuery{fmt.Sprintf("three-subs-%d", i), &query.Graph{
				Nodes: []query.Node{named("a", entity()), target("y", kind()), target("x", "Kind2"),
					named("b", query.Node{Name: "Hub"}), named("c", entity())},
				Edges: []query.Edge{edge("a", "y", pred()), edge("y", "x", pred()), edge("x", "b", "made"), edge("c", "x", pred())},
			}, core.Options{K: 5}})
	}
	for i := range qs {
		if qs[i].opts.Tau == 0 {
			qs[i].opts.Tau = 0.4
		}
		if qs[i].opts.MaxHops == 0 {
			qs[i].opts.MaxHops = 3
		}
	}
	return qs
}

// plain renders an engine result in the oracle's plain answer form.
func plain(res *core.Result) []oracle.Answer {
	out := make([]oracle.Answer, len(res.Answers))
	for i, a := range res.Answers {
		out[i] = oracle.Answer{Pivot: a.PivotName, Score: a.Score}
		for _, p := range a.Parts {
			part := oracle.Part{PSS: p.PSS}
			for _, st := range p.Steps {
				part.Steps = append(part.Steps, oracle.Step(st))
			}
			out[i].Parts = append(out[i].Parts, part)
		}
	}
	return out
}

// searcher is the one method every shape under test shares.
type searcher interface {
	Search(ctx context.Context, q *query.Graph, opts core.Options) (*core.Result, error)
}

// modes are the search modes every shape runs: exact, time-bounded with a
// budget nothing exhausts (the deadline never cuts, so the result must be
// the exact one, unflagged), and time-bounded on a deterministic clock
// that cuts most searches short (the result is then flagged approximate
// and judged by the approximate rule). sgq runs first: tbq-ample is
// compared with it.
var modes = []struct {
	name string
	with func(core.Options) core.Options
}{
	{"sgq", func(o core.Options) core.Options { return o }},
	{"tbq-ample", func(o core.Options) core.Options { o.TimeBound = time.Hour; return o }},
	{"tbq-tight", func(o core.Options) core.Options {
		o.TimeBound, o.Clock = 400*time.Microsecond, &tbq.StepClock{Step: 10 * time.Microsecond}
		return o
	}},
}

// stats counts what a run of the property actually covered, so it cannot
// pass vacuously.
type stats struct{ checked, answered, tiedAtK, approximate, multiAnchor int }

// checkAll runs every query in every mode through s and judges each
// result against the oracle over w.
func checkAll(t *testing.T, shape string, s searcher, w oracle.World, qs []testQuery, st *stats) {
	t.Helper()
	ctx := context.Background()
	for _, tq := range qs {
		var exact *core.Result
		for _, mode := range modes {
			name := shape + "/" + mode.name + "/" + tq.name
			opts := mode.with(tq.opts)
			res, err := s.Search(ctx, tq.q, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r := w.Rank(tq.q, res.Decomposition, opts.Tau, opts.MaxHops, opts.K)
			if err := r.Check(plain(res), res.Approximate); err != nil {
				t.Errorf("%s: %v\n  engine: %v\n  oracle: %+v", name, err, res.Entities(), r.All[:min(len(r.All), opts.K+2)])
				continue
			}
			switch mode.name {
			case "sgq":
				exact = res
			case "tbq-ample":
				// An uncut time-bounded run is the exact run.
				if res.Approximate {
					t.Errorf("%s: flagged approximate under a one-hour bound", name)
				}
				if !reflect.DeepEqual(res.Answers, exact.Answers) {
					t.Errorf("%s: answers differ from the same query's sgq answers\n   got %+v\n  want %+v", name, res.Answers, exact.Answers)
				}
			}
			st.checked++
			if len(res.Answers) > 0 {
				st.answered++
			}
			if k := opts.K; len(r.All) > k && r.All[k].Score == r.All[k-1].Score {
				st.tiedAtK++
			}
			if res.Approximate {
				st.approximate++
			}
			if len(r.Subs) > 0 && len(r.Subs[0].Anchors) > 1 {
				st.multiAnchor++
			}
		}
	}
}

// distributed serves every shard of a 3-way partition of e's graph from an
// httptest shard server and wires a coordinator over them.
func distributed(t *testing.T, e *core.Engine) *core.Engine {
	t.Helper()
	set, err := shard.Partition(e.Graph(), shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([][]string, set.Len())
	for i := range hosts {
		srv, err := shard.NewServer(set.Shard(i))
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		hosts[i] = []string{hs.URL}
	}
	de, err := core.NewDistEngine(e, hosts)
	if err != nil {
		t.Fatal(err)
	}
	return de
}

func TestDifferentialAgainstOracle(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:2]
	}
	var st stats
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		g := genGraph(rng)
		qs := genQueries(rng, g)
		e, err := engineFor(g)
		if err != nil {
			t.Fatal(err)
		}
		w := oracleFor(t, g)
		shape := func(name string) string { return fmt.Sprintf("seed%d/%s", seed, name) }

		checkAll(t, shape("single"), e, w, qs, &st)

		sharded, err := core.NewShardedEngine(e, shard.Options{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		checkAll(t, shape("sharded"), sharded, w, qs, &st)

		// Halo 2 serves the MaxHops-2 query from the partition and sends
		// every deeper one back to the whole graph.
		shallow, err := core.NewShardedEngine(e, shard.Options{Shards: 2, Halo: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkAll(t, shape("sharded-halo2"), shallow, w, qs, &st)
		if hs := shallow.Deployment().Sharded; hs.Fallbacks == 0 || hs.Searches == 0 {
			t.Errorf("halo-2 partition: %d sharded searches, %d fallbacks; want both", hs.Searches, hs.Fallbacks)
		}

		checkAll(t, shape("distributed"), distributed(t, e), w, qs, &st)

		gate, ready := make(chan struct{}), make(chan struct{})
		resharding := core.NewResharding(e, nil, core.ReshardConfig{
			Shard:   shard.Options{Shards: 3},
			Gate:    func() { <-gate },
			OnReady: func(core.ShardedStats) { close(ready) },
			OnError: func(err error) { t.Errorf("background partition failed: %v", err) },
		})
		checkAll(t, shape("resharding-before"), resharding, w, qs, &st)
		close(gate)
		select {
		case <-ready:
		case <-time.After(30 * time.Second):
			t.Fatal("background partition never became ready")
		}
		checkAll(t, shape("resharding-after"), resharding, w, qs, &st)

		ingestGenerations(t, shape, rng, e, qs, &st)
	}
	t.Logf("covered: %+v", st)
	if st.checked < 500 || st.answered < st.checked/4 || st.tiedAtK == 0 || st.approximate == 0 || st.multiAnchor == 0 {
		t.Errorf("the property ran thin: %+v", st)
	}
}

// ingestGenerations serves e through the serving layer, commits two
// deltas through serve.Apply — new entities (one joining the hub's tie
// group, one a third twin), a predicate the space has never seen, edges
// among old nodes — and after each re-judges every query, plus the
// queries the keyword front end assembles, against an oracle over the
// committed graph.
func ingestGenerations(t *testing.T, shape func(string) string, rng *rand.Rand, e *core.Engine, qs []testQuery, st *stats) {
	t.Helper()
	srv := serve.New(e, serve.Config{Build: func(g *kg.Graph) (*core.Engine, error) { return engineFor(g) }})
	for gen := 1; gen <= 2; gen++ {
		d := srv.NewDelta()
		g := srv.Engine().Graph()
		old := func() string { return g.NodeName(kg.NodeID(rng.Intn(g.NumNodes()))) }
		triples := [][3]string{
			{fmt.Sprintf("Spoke_new%d", gen), kg.TypePredicate, "Kind2"},
			{fmt.Sprintf("Spoke_new%d", gen), "made", "Hub"},
			{fmt.Sprintf("TWIN-ONE %d", gen), kg.TypePredicate, "Kind1"},
			{fmt.Sprintf("TWIN-ONE %d", gen), fmt.Sprintf("forged%d", gen), old()},
		}
		for i := 0; i < 12; i++ {
			triples = append(triples, [3]string{old(), preds[rng.Intn(len(preds))], old()})
		}
		for _, tr := range triples {
			if err := d.ApplyTriple(tr[0], tr[1], tr[2]); err != nil {
				t.Fatal(err)
			}
		}
		info, err := srv.Apply(d)
		if err != nil || info.Generation != uint64(gen) {
			t.Fatalf("apply %d: generation %d, err %v", gen, info.Generation, err)
		}
		committed := srv.Engine().Graph()
		w := oracleFor(t, committed)
		checkAll(t, shape(fmt.Sprintf("ingest-gen%d", gen)), srv, w, qs, st)

		var assembled []testQuery
		for _, input := range []string{"kind2 made hub", "Kind1 owns " + old(), "spoke built hub"} {
			for i, c := range keyword.Assemble(committed, input).Candidates {
				if i < 3 {
					assembled = append(assembled, testQuery{fmt.Sprintf("keyword %q #%d", input, i), c.Query,
						core.Options{K: 5, Tau: 0.4, MaxHops: 3}})
				}
			}
		}
		if len(assembled) == 0 {
			t.Errorf("generation %d: the keyword front end assembled no query", gen)
		}
		checkAll(t, shape(fmt.Sprintf("keyword-gen%d", gen)), srv, w, assembled, st)
	}
}
