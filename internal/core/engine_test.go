package core

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"semkg/internal/astar"
	"semkg/internal/datagen"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/tbq"
	"semkg/internal/transform"
)

// motivatingGraph builds a small DBpedia-like graph around the paper's
// motivating example (Fig. 1/2): cars related to Germany through several
// schemas (direct assembly, assembly via city, manufacturer via company),
// plus distractors (designers, engines, languages).
func motivatingGraph() *kg.Graph {
	b := kg.NewBuilder(64, 128)
	ger := b.AddNode("Germany", "Country")
	france := b.AddNode("France", "Country")
	regensburg := b.AddNode("Regensburg", "City")
	paris := b.AddNode("Paris", "City")
	bmwCo := b.AddNode("BMW_Company", "Company")
	renaultCo := b.AddNode("Renault_Company", "Company")
	german := b.AddNode("German_language", "Language")
	peter := b.AddNode("Peter_Schreyer", "Person")

	b.AddEdge(regensburg, ger, "country")
	b.AddEdge(paris, france, "country")
	b.AddEdge(bmwCo, ger, "locationCountry")
	b.AddEdge(renaultCo, france, "locationCountry")
	b.AddEdge(ger, german, "language")
	b.AddEdge(peter, ger, "nationality")

	// Schema 1: Automobile -assembly-> Germany (direct).
	for _, name := range []string{"BMW_320", "Audi_TT"} {
		u := b.AddNode(name, "Automobile")
		b.AddEdge(u, ger, "assembly")
	}
	// Schema 2: Automobile -assembly-> City -country-> Germany.
	bmwZ4 := b.AddNode("BMW_Z4", "Automobile")
	b.AddEdge(bmwZ4, regensburg, "assembly")
	// Schema 3: Automobile -manufacturer-> Company -locationCountry-> Germany.
	bmwX6 := b.AddNode("BMW_X6", "Automobile")
	b.AddEdge(bmwX6, bmwCo, "manufacturer")
	// French distractors (same schemas, wrong country).
	clio := b.AddNode("Renault_Clio", "Automobile")
	b.AddEdge(clio, france, "assembly")
	megane := b.AddNode("Renault_Megane", "Automobile")
	b.AddEdge(megane, renaultCo, "manufacturer")
	// A car merely *designed* by a German: semantically different.
	kia := b.AddNode("KIA_K5", "Automobile")
	b.AddEdge(kia, peter, "designer")
	return b.Build()
}

// handSpace builds a predicate space encoding the intended semantics:
// assembly/product/manufacturer-ish predicates cluster; designer,
// nationality, language, country sit apart to varying degrees.
func handSpace(t *testing.T, g *kg.Graph) *embed.Space {
	t.Helper()
	vecs := map[string]embed.Vector{
		"assembly":        {1.00, 0.05, 0.02},
		"product":         {0.99, 0.08, 0.03},
		"manufacturer":    {0.95, 0.20, 0.05},
		"country":         {0.90, 0.10, 0.30},
		"locationCountry": {0.90, 0.12, 0.28},
		"designer":        {0.30, 0.90, 0.10},
		"nationality":     {0.35, 0.85, 0.20},
		"language":        {0.05, 0.15, 0.98},
	}
	names := g.Predicates()
	ordered := make([]embed.Vector, len(names))
	for i, n := range names {
		v, ok := vecs[n]
		if !ok {
			t.Fatalf("no hand vector for predicate %q", n)
		}
		ordered[i] = v
	}
	sp, err := embed.NewSpace(names, ordered)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func library() *transform.Library {
	lib := transform.NewLibrary()
	lib.AddSynonyms("Car", "Automobile", "Auto", "Motorcar")
	lib.AddAbbreviation("GER", "Germany")
	return lib
}

func q117(predicate string) *query.Graph {
	return &query.Graph{
		Nodes: []query.Node{
			{ID: "v1", Type: "Automobile"},
			{ID: "v2", Name: "Germany", Type: "Country"},
		},
		Edges: []query.Edge{{From: "v1", To: "v2", Predicate: predicate}},
	}
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	g := motivatingGraph()
	e, err := NewEngine(g, handSpace(t, g), library())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// TestSearchQ117 reproduces the paper's running example: the single-edge
// query "cars assembled in Germany" must find answers across multiple
// schemas (direct assembly, assembly-via-city, manufacturer-via-company)
// while excluding French cars and the merely-designed-by-a-German car.
func TestSearchQ117(t *testing.T) {
	e := newTestEngine(t)
	res, err := e.Search(context.Background(), q117("assembly"), Options{K: 10, Tau: 0.75, MaxHops: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Entities()
	for _, want := range []string{"BMW_320", "Audi_TT", "BMW_Z4", "BMW_X6"} {
		if !contains(got, want) {
			t.Errorf("missing answer %s (got %v)", want, got)
		}
	}
	for _, bad := range []string{"Renault_Clio", "Renault_Megane", "KIA_K5"} {
		if contains(got, bad) {
			t.Errorf("wrong answer %s returned (got %v)", bad, got)
		}
	}
	// Direct assembly answers must outrank the 2-hop schemas.
	if len(got) < 3 || (got[0] != "BMW_320" && got[0] != "Audi_TT") {
		t.Errorf("direct-schema answers should rank first: %v", got)
	}
	if res.Elapsed <= 0 || len(res.SearchStats) != 1 {
		t.Errorf("missing stats: %+v", res)
	}
}

// TestSearchEdgeMismatch reproduces the G3_Q case of Fig. 1: the query uses
// predicate "product", which no graph edge carries; the semantic space maps
// it to assembly-cluster edges, so answers are still found.
func TestSearchEdgeMismatch(t *testing.T) {
	e := newTestEngine(t)
	res, err := e.Search(context.Background(), q117("product"), Options{K: 10, Tau: 0.75, MaxHops: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Entities()
	for _, want := range []string{"BMW_320", "Audi_TT"} {
		if !contains(got, want) {
			t.Errorf("missing %s under product predicate (got %v)", want, got)
		}
	}
}

// TestSearchNodeMismatch reproduces the G1_Q case: the query type <Car>
// matches nothing without the library, and works with it.
func TestSearchNodeMismatch(t *testing.T) {
	g := motivatingGraph()
	sp := handSpace(t, g)

	carQuery := &query.Graph{
		Nodes: []query.Node{
			{ID: "v1", Type: "Car"},
			{ID: "v2", Name: "Germany", Type: "Country"},
		},
		Edges: []query.Edge{{From: "v1", To: "v2", Predicate: "assembly"}},
	}

	bare, err := NewEngine(g, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bare.Search(context.Background(), carQuery, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Errorf("without library, <Car> should match nothing, got %v", res.Entities())
	}

	withLib, err := NewEngine(g, sp, library())
	if err != nil {
		t.Fatal(err)
	}
	res, err = withLib.Search(context.Background(), carQuery, Options{K: 10, Tau: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(res.Entities(), "BMW_320") {
		t.Errorf("with library, <Car> should match Automobile: %v", res.Entities())
	}
}

// TestSearchChainQuery exercises the decomposition-assembly path on a
// 2-sub-query chain: German cars that are assembled in Germany AND
// manufactured by a company located in Germany.
func TestSearchChainQuery(t *testing.T) {
	// Extend the graph with a car matching both branches.
	b := kg.NewBuilder(64, 128)
	ger := b.AddNode("Germany", "Country")
	co := b.AddNode("BMW_Company", "Company")
	both := b.AddNode("BMW_M3", "Automobile")
	only1 := b.AddNode("Audi_TT", "Automobile")
	b.AddEdge(co, ger, "locationCountry")
	b.AddEdge(both, ger, "assembly")
	b.AddEdge(both, co, "manufacturer")
	b.AddEdge(only1, ger, "assembly")
	g := b.Build()

	vecs := map[string]embed.Vector{
		"assembly":        {1, 0.05, 0},
		"manufacturer":    {0.95, 0.2, 0},
		"locationCountry": {0.9, 0.12, 0.28},
	}
	names := g.Predicates()
	ordered := make([]embed.Vector, len(names))
	for i, n := range names {
		ordered[i] = vecs[n]
	}
	sp, err := embed.NewSpace(names, ordered)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, sp, nil)
	if err != nil {
		t.Fatal(err)
	}

	q := &query.Graph{
		Nodes: []query.Node{
			{ID: "v1", Type: "Automobile"},
			{ID: "v2", Name: "Germany", Type: "Country"},
			{ID: "v3", Type: "Company"},
		},
		Edges: []query.Edge{
			{From: "v1", To: "v2", Predicate: "assembly"},
			{From: "v1", To: "v3", Predicate: "manufacturer"},
		},
	}
	res, err := e.Search(context.Background(), q, Options{K: 5, Tau: 0.5, MaxHops: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Only BMW_M3 satisfies both branches: Audi_TT has no manufacturer
	// edge and cannot complete the path to a Company. The decomposition is
	// free to pick either target as the pivot, so assert on the v1
	// binding, not the pivot entity.
	if got := res.EntitiesOf("v1"); len(got) != 1 || got[0] != "BMW_M3" {
		t.Fatalf("v1 bindings = %v, want [BMW_M3]", got)
	}
	if len(res.Answers) == 0 || len(res.Answers[0].Bindings) < 3 {
		t.Fatalf("answer bindings incomplete: %+v", res.Answers)
	}
	if res.Answers[0].Bindings["v2"] != "Germany" {
		t.Errorf("v2 binding = %q, want Germany", res.Answers[0].Bindings["v2"])
	}
}

func TestSearchTimeBounded(t *testing.T) {
	e := newTestEngine(t)
	res, err := e.Search(context.Background(), q117("assembly"), Options{
		K: 10, Tau: 0.75, MaxHops: 4,
		TimeBound: 5 * time.Second,
		Clock:     &tbq.StepClock{Step: 10 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Approximate {
		t.Error("ample bound should produce the exact result")
	}
	if !contains(res.Entities(), "BMW_320") {
		t.Errorf("TBQ missing BMW_320: %v", res.Entities())
	}
	if len(res.Collected) != 1 || res.Collected[0] == 0 {
		t.Errorf("Collected = %v", res.Collected)
	}

	// Tiny bound: approximate, but never errors.
	res, err = e.Search(context.Background(), q117("assembly"), Options{
		K: 10, Tau: 0.75,
		TimeBound: time.Nanosecond,
		Clock:     &tbq.StepClock{Step: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approximate {
		t.Error("nanosecond bound must be approximate")
	}
}

// TestTimeBoundedSimpleCostsNoMore pins, in search effort rather than wall
// clock, that a time-bounded query is never slower than the exact one it
// cuts: for every one-sub-query query of the generated worlds, an uncut
// TBQ run returns the SGQ answers after exactly the SGQ run's A* pops,
// pushes and emitted matches — no search beyond what the exact top-k
// needs.
func TestTimeBoundedSimpleCostsNoMore(t *testing.T) {
	ctx := context.Background()
	checked := 0
	for _, seed := range []int64{3, 8, 17, 21, 42} {
		ds, e := tinyWorld(t, seed)
		var queries []datagen.GenQuery
		queries = append(append(append(queries, ds.Simple...), ds.Medium...), ds.Complex...)
		for _, q := range queries {
			exact := Options{K: 5, Tau: 0.5, MaxHops: 3}
			bounded := exact
			bounded.TimeBound = time.Hour
			want, err := e.Search(ctx, q.Graph, exact)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Decomposition.Subs) != 1 {
				continue
			}
			got, err := e.Search(ctx, q.Graph, bounded)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("seed %d %s", seed, q.Name)
			if got.Approximate || !reflect.DeepEqual(got.Answers, want.Answers) {
				t.Errorf("%s: TBQ answers %v (approximate %v), SGQ %v", name, got.Entities(), got.Approximate, want.Entities())
			}
			for i, w := range want.SearchStats {
				g := got.SearchStats[i]
				if g.Popped != w.Popped || g.Pushed != w.Pushed || g.Emitted != w.Emitted {
					t.Errorf("%s: TBQ effort %+v, SGQ %+v", name, g, w)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no one-sub-query query in the generated worlds")
	}
}

func TestSearchCancelledContext(t *testing.T) {
	e := newTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.Search(ctx, q117("assembly"), Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Cancellation is anytime behaviour: no error, possibly fewer answers.
	_ = res

	// A time-bounded run takes its cut on cancellation: whatever it
	// returns is flagged approximate, after the one alert.
	bounded := Options{K: 10, TimeBound: time.Hour}
	if res, err = e.Search(ctx, q117("assembly"), bounded); err != nil {
		t.Fatal(err)
	}
	if !res.Approximate {
		t.Error("cancelled time-bounded search not flagged approximate")
	}
	st, err := e.Stream(ctx, q117("assembly"), bounded)
	if err != nil {
		t.Fatal(err)
	}
	events, res := drainStream(t, st)
	if !res.Approximate {
		t.Error("cancelled time-bounded stream not flagged approximate")
	}
	checkAlert(t, "cancelled time-bounded stream", events, res)
}

// gateClock reads a fixed instant until opened, then an hour later: a
// deadline on it is due exactly from the moment a test opens it.
type gateClock struct{ open atomic.Bool }

var gateEpoch = time.Unix(1e9, 0)

func (c *gateClock) Now() time.Time {
	if c.open.Load() {
		return gateEpoch.Add(time.Hour)
	}
	return gateEpoch
}

// stubSearch yields n zero matches, counting its pulls.
type stubSearch struct{ n, pulls int }

func (s *stubSearch) Next() (astar.Match, bool) {
	s.pulls++
	if s.n == 0 {
		return astar.Match{}, false
	}
	s.n--
	return astar.Match{}, true
}

// TestResumeStreamRefusal pins which reads past a prefetch buffer take a
// time-bounded run's cut. A search that ran dry just ends — a finished
// sub-query, or a shard with no matches, must not cut the run. A search
// that could go on is refused past the deadline and takes the cut without
// being asked, and so is any search of a cancelled run.
func TestResumeStreamRefusal(t *testing.T) {
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	newStream := func(ctx context.Context, search *stubSearch) (*resumeStream, *deadline, *gateClock) {
		clock := &gateClock{}
		s := &Stream{quiet: true}
		dl := s.deadline(Options{TimeBound: time.Minute, Clock: clock})
		return &resumeStream{ctx: ctx, dl: dl, search: search}, dl, clock
	}

	// Ran dry during the prefetch, read past the deadline.
	dry := &stubSearch{}
	r, dl, clock := newStream(bg, dry)
	if _, ok := r.pull(); ok || !r.dry {
		t.Fatal("an empty search did not run dry")
	}
	clock.open.Store(true)
	if _, ok := r.Next(); ok || dl.taken() || dry.pulls != 1 {
		t.Errorf("dry search past the deadline: cut %v after %d pulls, want no cut after 1", dl.taken(), dry.pulls)
	}

	// One buffered match, more to search, read past the deadline.
	more := &stubSearch{n: 5}
	r, dl, clock = newStream(bg, more)
	if m, ok := r.pull(); ok {
		r.buf = append(r.buf, m)
	}
	clock.open.Store(true)
	if _, ok := r.Next(); !ok {
		t.Error("the buffered match was not served past the deadline")
	}
	if _, ok := r.Next(); ok || !dl.taken() || more.pulls != 1 {
		t.Errorf("live search past the deadline: cut %v after %d pulls, want a cut after 1", dl.taken(), more.pulls)
	}

	// Cancelled before the deadline.
	r, dl, _ = newStream(cancelled, &stubSearch{n: 5})
	if _, ok := r.Next(); ok || !dl.taken() {
		t.Errorf("cancelled run: cut %v, want the cut", dl.taken())
	}

	// The exact mode has no cut; cancellation just ends the stream.
	r = &resumeStream{ctx: cancelled, search: &stubSearch{n: 5}}
	if _, ok := r.Next(); ok {
		t.Error("cancelled exact run kept searching")
	}
}

// The two shards of TestCutKeepsBufferedMatchesPastDrySource. Their
// prefetches must run at once: shard 1 has no matches and runs dry only
// once shard 2 has prefetched its share (full), then opens the clock, so
// the deadline is due from the assembly's first read on; shard 2 delivers
// only once shard 1 is searching (started). A prefetch left waiting for
// the other gives up after rendezvousWait and opens the clock: the
// deadline passed while it was serialised.
const rendezvousWait = 10 * time.Second

type emptyShard struct {
	started, full chan struct{}
	clock         *gateClock
}

func (s *emptyShard) Next() (astar.Match, bool) {
	close(s.started)
	select {
	case <-s.full:
	case <-time.After(rendezvousWait):
	}
	s.clock.open.Store(true)
	return astar.Match{}, false
}

func (s *emptyShard) Stats() astar.Stats { return astar.Stats{} }
func (s *emptyShard) Shard() int         { return 1 }

type liveShard struct {
	matchSource
	n, share      int
	started, full chan struct{}
	clock         *gateClock
}

func (s *liveShard) Next() (astar.Match, bool) {
	if s.n == 0 {
		select {
		case <-s.started:
		case <-time.After(rendezvousWait):
			s.clock.open.Store(true)
		}
	}
	m, ok := s.matchSource.Next()
	if s.n++; s.n == s.share {
		close(s.full)
	}
	return m, ok
}

func (s *liveShard) Shard() int { return 2 }

// TestCutKeepsBufferedMatchesPastDrySource runs a time-bounded query over a
// two-shard scatter in which shard 1 has no matches and shard 2 holds them
// all. Shard 1's search ran dry during the prefetch, so the merger's read
// of it is exhaustion, not a refusal: past the deadline the assembly still
// drains shard 2's buffer and answers from it, flagged approximate, each
// answer at its exact score. The two sources rendezvous inside their
// prefetches, so this also pins that every prefetch starts at once.
func TestCutKeepsBufferedMatchesPastDrySource(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 17)
	opts := Options{K: 5, Tau: 0.5, MaxHops: 3}
	var q *query.Graph
	for _, gq := range append(append([]datagen.GenQuery(nil), ds.Simple...), ds.Medium...) {
		res, err := e.Search(ctx, gq.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Decomposition.Subs) == 1 && len(res.Answers) == opts.K {
			q = gq.Graph
			break
		}
	}
	if q == nil {
		t.Fatal("no one-sub-query query with k answers in the world")
	}
	clock := &gateClock{}
	opts.TimeBound, opts.Clock = time.Minute, clock
	opts = opts.withDefaults()
	p, err := e.Compile(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := e.wholeGraphSources(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	started, full := make(chan struct{}), make(chan struct{})
	sc := &scatter{
		sources: [][]matchSource{{
			&emptyShard{started: started, full: full, clock: clock},
			&liveShard{matchSource: whole[0][0], share: 1 + (opts.K-1)/shards, started: started, full: full, clock: clock},
		}},
		shards: shards,
	}
	s := &Stream{events: make(chan Event), done: make(chan struct{}), quiet: true}
	e.run(ctx, s, p, sc, opts, s.deadline(opts), time.Now())
	res := s.Result()
	if !res.Approximate || len(res.Answers) == 0 {
		t.Fatalf("cut run: %d answers, approximate %v; want the buffered answers, flagged", len(res.Answers), res.Approximate)
	}
	oracleCheck(t, "dry-shard cut", e, ds.Library, q, opts, res)
}

func TestSearchExplicitPivot(t *testing.T) {
	e := newTestEngine(t)
	res, err := e.Search(context.Background(), q117("assembly"), Options{K: 5, PivotNode: "v1", Tau: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decomposition.Pivot != "v1" {
		t.Errorf("pivot = %s, want v1", res.Decomposition.Pivot)
	}
	if _, err := e.Search(context.Background(), q117("assembly"), Options{PivotNode: "bogus"}); err == nil {
		t.Error("bogus pivot should error")
	}
}

func TestSearchInvalidQuery(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Search(context.Background(), &query.Graph{}, Options{}); err == nil {
		t.Error("empty query should error")
	}
}

func TestNewEngineValidation(t *testing.T) {
	g := motivatingGraph()
	if _, err := NewEngine(nil, nil, nil); err == nil {
		t.Error("nil graph should error")
	}
	bad, _ := embed.NewSpace([]string{"x"}, []embed.Vector{{1}})
	if _, err := NewEngine(g, bad, nil); err == nil {
		t.Error("mismatched space should error")
	}
}

func TestAnswerRendering(t *testing.T) {
	e := newTestEngine(t)
	res, err := e.Search(context.Background(), q117("assembly"), Options{K: 10, Tau: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Answers {
		if a.PivotName == "" || a.Score <= 0 {
			t.Errorf("answer missing fields: %+v", a)
		}
		for _, p := range a.Parts {
			if p.PSS <= 0 || len(p.Steps) == 0 {
				t.Errorf("sub-match missing fields: %+v", p)
			}
			for _, s := range p.Steps {
				if s.FromName == "" || s.Predicate == "" || s.ToName == "" {
					t.Errorf("step missing fields: %+v", s)
				}
			}
		}
	}
}

// TestEntitiesOf pins the dedup-in-rank-order contract: duplicates keep
// their first (best-ranked) position, answers without the binding are
// skipped, and an unknown node ID yields nil.
func TestEntitiesOf(t *testing.T) {
	r := &Result{Answers: []Answer{
		{PivotName: "P1", Bindings: map[string]string{"v": "A", "w": "X"}},
		{PivotName: "P2", Bindings: map[string]string{"v": "B"}},
		{PivotName: "P3", Bindings: map[string]string{"w": "Y"}}, // no "v" binding
		{PivotName: "P4", Bindings: map[string]string{"v": "A"}}, // duplicate of rank 1
		{PivotName: "P5", Bindings: map[string]string{"v": "C"}},
	}}
	got := r.EntitiesOf("v")
	want := []string{"A", "B", "C"}
	if len(got) != len(want) {
		t.Fatalf("EntitiesOf(v) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EntitiesOf(v) = %v, want %v", got, want)
		}
	}
	if r.EntitiesOf("nope") != nil {
		t.Errorf("unknown node should yield nil, got %v", r.EntitiesOf("nope"))
	}
}

// TestBindingsFirstSubQueryWins exercises the documented precedence rule:
// when two sub-queries share a non-pivot query node but their matched
// paths pass through different entities, the first sub-query's assignment
// wins (consistency is only enforced at the pivot, as in the paper).
func TestBindingsFirstSubQueryWins(t *testing.T) {
	// Two anchors reach the same pivot entity P1 through *different*
	// middle entities: s1 -p-> M1 -q-> P1 and s2 -p-> M2 -q-> P1. The
	// query shares one middle target node "mid" between both sub-queries.
	b := kg.NewBuilder(16, 16)
	a1 := b.AddNode("Anchor1", "A")
	a2 := b.AddNode("Anchor2", "A")
	m1 := b.AddNode("M1", "M")
	m2 := b.AddNode("M2", "M")
	p1 := b.AddNode("P1", "P")
	b.AddEdge(a1, m1, "p")
	b.AddEdge(a2, m2, "p")
	b.AddEdge(m1, p1, "q")
	b.AddEdge(m2, p1, "q")
	g := b.Build()

	names := g.Predicates()
	vecs := make([]embed.Vector, len(names))
	for i, n := range names {
		switch n {
		case "p":
			vecs[i] = embed.Vector{1, 0, 0}
		case "q":
			vecs[i] = embed.Vector{0, 1, 0}
		}
	}
	sp, err := embed.NewSpace(names, vecs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, sp, nil)
	if err != nil {
		t.Fatal(err)
	}

	q := &query.Graph{
		Nodes: []query.Node{
			{ID: "s1", Name: "Anchor1", Type: "A"},
			{ID: "s2", Name: "Anchor2", Type: "A"},
			{ID: "mid", Type: "M"},
			{ID: "piv", Type: "P"},
		},
		Edges: []query.Edge{
			{From: "s1", To: "mid", Predicate: "p"},
			{From: "s2", To: "mid", Predicate: "p"},
			{From: "mid", To: "piv", Predicate: "q"},
		},
	}
	res, err := e.Search(context.Background(), q, Options{K: 3, Tau: 0.5, MaxHops: 2, PivotNode: "piv"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %+v, want exactly one (P1)", res.Answers)
	}
	a := res.Answers[0]
	if a.PivotName != "P1" {
		t.Fatalf("pivot = %q, want P1", a.PivotName)
	}
	if len(a.Parts) != 2 {
		t.Fatalf("parts = %d, want 2 sub-queries", len(a.Parts))
	}
	// The sub-queries genuinely disagree: sub 1 (from s1) runs through M1,
	// sub 2 (from s2) through M2.
	through := func(part SubMatch, name string) bool {
		for _, s := range part.Steps {
			if s.FromName == name || s.ToName == name {
				return true
			}
		}
		return false
	}
	if !through(a.Parts[0], "M1") || !through(a.Parts[1], "M2") {
		t.Fatalf("expected sub 1 via M1 and sub 2 via M2, got %+v", a.Parts)
	}
	// First sub-query wins the shared "mid" binding.
	if a.Bindings["mid"] != "M1" {
		t.Errorf(`Bindings["mid"] = %q, want "M1" (first sub-query wins)`, a.Bindings["mid"])
	}
	if a.Bindings["s1"] != "Anchor1" || a.Bindings["s2"] != "Anchor2" || a.Bindings["piv"] != "P1" {
		t.Errorf("bindings incomplete: %+v", a.Bindings)
	}
}

// TestEndToEndWithTransE runs the full offline+online pipeline: train a
// real TransE embedding on the graph, then query through it.
func TestEndToEndWithTransE(t *testing.T) {
	g := motivatingGraph()
	model, err := embed.TrainTransE(context.Background(), g, embed.Config{Dim: 32, Epochs: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := model.Space(g)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, sp, library())
	if err != nil {
		t.Fatal(err)
	}
	// Learned similarities are noisier than hand vectors: relax τ.
	res, err := e.Search(context.Background(), q117("assembly"), Options{K: 10, Tau: 0.3, MaxHops: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Entities()
	if !contains(got, "BMW_320") || !contains(got, "Audi_TT") {
		t.Errorf("TransE pipeline missing direct answers: %v", got)
	}
}
