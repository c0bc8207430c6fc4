package keyword

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"semkg/internal/core"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/serve"
)

// testGraph is the motivating-example world with multi-word names, so
// fusion, prefix and initials matching are all exercised: "Bavarian Motor
// Works" abbreviates to "bmw", car names share the "bmw" prefix.
func testGraph(t *testing.T) *kg.Graph {
	t.Helper()
	b := kg.NewBuilder(32, 64)
	ger := b.AddNode("Germany", "Country")
	france := b.AddNode("France", "Country")
	munich := b.AddNode("Munich", "City")
	co := b.AddNode("Bavarian Motor Works", "Company")
	b.AddEdge(munich, ger, "country")
	b.AddEdge(co, ger, "locationCountry")
	for _, name := range []string{"BMW 320", "Audi TT"} {
		b.AddEdge(b.AddNode(name, "Automobile"), ger, "assembly")
	}
	b.AddEdge(b.AddNode("BMW Z4", "Automobile"), munich, "assembly")
	b.AddEdge(b.AddNode("BMW X6", "Automobile"), co, "manufacturer")
	b.AddEdge(b.AddNode("Clio", "Automobile"), france, "assembly")
	return b.Build()
}

var testVecs = map[string]embed.Vector{
	"assembly":        {1.00, 0.05, 0.02},
	"manufacturer":    {0.95, 0.20, 0.05},
	"country":         {0.90, 0.10, 0.30},
	"locationCountry": {0.90, 0.12, 0.28},
}

func buildEngine(g *kg.Graph) (*core.Engine, error) {
	names := g.Predicates()
	ordered := make([]embed.Vector, len(names))
	for i, n := range names {
		if v, ok := testVecs[n]; ok {
			ordered[i] = v
		} else {
			ordered[i] = embed.Vector{0.30, 0.90, 0.30}
		}
	}
	sp, err := embed.NewSpace(names, ordered)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(g, sp, nil)
}

func testServe(t *testing.T) *serve.Engine {
	t.Helper()
	eng, err := buildEngine(testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	return serve.New(eng, serve.Config{Build: buildEngine})
}

func testOpts() core.Options { return core.Options{K: 10, Tau: 0.75} }

func TestTokenizeFusesMultiWordNames(t *testing.T) {
	g := testGraph(t)
	toks := Tokenize(g, "bavarian motor works,  Germany")
	if len(toks) != 2 {
		t.Fatalf("tokens = %+v, want 2 (fused name + germany)", toks)
	}
	if toks[0].Norm != "bavarian_motor_works" || toks[0].Raw != "bavarian motor works" {
		t.Fatalf("fused token = %+v", toks[0])
	}
	if toks[1].Norm != "germany" {
		t.Fatalf("second token = %+v", toks[1])
	}
}

func TestMatchKeywordPaths(t *testing.T) {
	g := testGraph(t)
	find := func(norm string, kind Kind, via Via, name string) *Interp {
		for _, it := range matchKeyword(g, norm, 8) {
			if it.Kind == kind && it.Via == via && it.Name == name {
				return &it
			}
		}
		return nil
	}
	if it := find("germany", KindEntity, ViaExact, "Germany"); it == nil || it.Quality != 1 || it.Count != 1 {
		t.Fatalf("exact entity match for %q = %+v", "germany", it)
	}
	if it := find("ger", KindEntity, ViaPrefix, "Germany"); it == nil || it.Quality >= 1 {
		t.Fatalf("prefix match for %q = %+v", "ger", it)
	}
	if it := find("bmw", KindEntity, ViaInitials, "Bavarian Motor Works"); it == nil {
		t.Fatalf("initials match for %q missing: %+v", "bmw", matchKeyword(g, "bmw", 8))
	}
	if it := find("auto", KindType, ViaPrefix, "Automobile"); it == nil {
		t.Fatalf("type prefix match for %q missing", "auto")
	}
	if it := find("assembly", KindPredicate, ViaExact, "assembly"); it == nil || it.Count != 4 {
		t.Fatalf("predicate match = %+v", it)
	}
}

// TestAssembleBestCandidate: the canonical keyword query assembles the
// canonical structured query — a star joining ?Automobile to Germany over
// the assembly predicate, consuming all three keywords.
func TestAssembleBestCandidate(t *testing.T) {
	g := testGraph(t)
	asm := Assemble(g, "automobile assembly germany")
	if len(asm.Unmatched) != 0 {
		t.Fatalf("unmatched = %v", asm.Unmatched)
	}
	if len(asm.Candidates) == 0 {
		t.Fatal("no candidates assembled")
	}
	best := asm.Candidates[0]
	if err := best.Query.Validate(); err != nil {
		t.Fatalf("best candidate invalid: %v", err)
	}
	if best.Coverage != 1 {
		t.Fatalf("best coverage = %v, want 1 (all keywords consumed); candidate %+v", best.Coverage, best)
	}
	var focus, anchor int
	for _, n := range best.Query.Nodes {
		switch {
		case n.Name == "" && n.Type == "Automobile":
			focus++
		case n.Name == "Germany":
			anchor++
		}
	}
	if focus != 1 || anchor != 1 {
		t.Fatalf("best query = %+v, want one ?Automobile and one Germany", best.Query)
	}
	if len(best.Query.Edges) != 1 || best.Query.Edges[0].Predicate != "assembly" {
		t.Fatalf("best edges = %+v, want single assembly edge", best.Query.Edges)
	}
	for _, c := range asm.Candidates {
		if err := c.Query.Validate(); err != nil {
			t.Fatalf("candidate %q invalid: %v", c.Explain, err)
		}
	}
	// Scores are sorted best-first.
	if !sort.SliceIsSorted(asm.Candidates, func(i, j int) bool {
		return asm.Candidates[i].Score > asm.Candidates[j].Score
	}) && len(asm.Candidates) > 1 {
		t.Fatal("candidates not sorted by score")
	}
}

// TestAssembleInferredFocus: keywords without a type still assemble — the
// focus type is inferred from the entity neighborhood.
func TestAssembleInferredFocus(t *testing.T) {
	g := testGraph(t)
	asm := Assemble(g, "germany")
	if len(asm.Candidates) == 0 {
		t.Fatal("no candidates for a bare entity keyword")
	}
	for _, c := range asm.Candidates {
		if err := c.Query.Validate(); err != nil {
			t.Fatalf("candidate %q invalid: %v", c.Explain, err)
		}
	}
}

// TestSearchMatchesStructuredEquivalent is the acceptance property test:
// executing exactly one candidate, the blended response carries the
// identical answer set and scores as the structured search of that
// candidate's query through the same serving layer.
func TestSearchMatchesStructuredEquivalent(t *testing.T) {
	srv := testServe(t)
	f := New(srv)
	ctx := context.Background()

	resp, err := f.Search(ctx, "automobile assembly germany", testOpts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Executed != 1 || len(resp.Answers) == 0 {
		t.Fatalf("executed=%d answers=%d, want 1 executed with answers", resp.Executed, len(resp.Answers))
	}
	structured, err := srv.Search(ctx, resp.Assembly.Candidates[0].Query, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	type es struct {
		entity string
		score  float64
	}
	var got, want []es
	for _, a := range resp.Answers {
		got = append(got, es{a.Entity, a.Answer.Score})
	}
	for _, a := range structured.Answers {
		want = append(want, es{a.PivotName, a.Score})
	}
	byEntity := func(l []es) func(i, j int) bool {
		return func(i, j int) bool { return l[i].entity < l[j].entity }
	}
	sort.Slice(got, byEntity(got))
	sort.Slice(want, byEntity(want))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("keyword answers = %v, structured answers = %v", got, want)
	}
}

// TestBlendedDedupAndDeterminism: with several candidates executing, every
// entity appears at most once and two independent front ends produce the
// identical ranking.
func TestBlendedDedupAndDeterminism(t *testing.T) {
	ctx := context.Background()
	type row struct {
		entity    string
		blended   float64
		candidate int
	}
	run := func() []row {
		f := New(testServe(t))
		resp, err := f.Search(ctx, "automobile assembly germany", testOpts(), 3)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Executed < 2 {
			t.Fatalf("executed = %d, want >= 2 candidates for a blending test", resp.Executed)
		}
		var rows []row
		for _, a := range resp.Answers {
			rows = append(rows, row{a.Entity, a.Blended, a.Candidate})
		}
		return rows
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("no blended answers")
	}
	seen := make(map[string]bool)
	for _, r := range first {
		if seen[r.entity] {
			t.Fatalf("entity %q appears twice in blended answers", r.entity)
		}
		seen[r.entity] = true
	}
	for i := 0; i < 3; i++ {
		if again := run(); !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d differs:\n%v\nvs\n%v", i, again, first)
		}
	}
	if !sort.SliceIsSorted(first, func(i, j int) bool {
		if first[i].blended != first[j].blended {
			return first[i].blended > first[j].blended
		}
		return first[i].entity < first[j].entity
	}) {
		t.Fatalf("blended answers not in blended order: %v", first)
	}
}

// TestStreamAttribution: the stream opens with the assembly, forwards
// engine events tagged with their candidate index, and closes with a
// blended response equal to the batch path's.
func TestStreamAttribution(t *testing.T) {
	srv := testServe(t)
	f := New(srv)
	ctx := context.Background()

	batch, err := f.Search(ctx, "automobile assembly germany", testOpts(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := f.Stream(ctx, "automobile assembly germany", testOpts(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for ev := range ch {
		events = append(events, ev)
	}
	if len(events) < 3 {
		t.Fatalf("got %d events, want assembly + engine events + final", len(events))
	}
	if events[0].Assembly == nil || events[0].Candidate != -1 {
		t.Fatalf("first event = %+v, want assembly", events[0])
	}
	final := events[len(events)-1]
	if final.Final == nil || final.Candidate != -1 {
		t.Fatalf("last event = %+v, want final response", final)
	}
	for _, ev := range events[1 : len(events)-1] {
		if ev.Inner == nil {
			t.Fatalf("middle event without inner payload: %+v", ev)
		}
		if ev.Candidate < 0 || ev.Candidate >= final.Final.Executed {
			t.Fatalf("event candidate %d out of range [0,%d)", ev.Candidate, final.Final.Executed)
		}
	}
	var batchEntities, streamEntities []string
	for _, a := range batch.Answers {
		batchEntities = append(batchEntities, a.Entity)
	}
	for _, a := range final.Final.Answers {
		streamEntities = append(streamEntities, a.Entity)
	}
	if !reflect.DeepEqual(batchEntities, streamEntities) {
		t.Fatalf("stream blended %v, batch blended %v", streamEntities, batchEntities)
	}
}

// TestStreamAbandonedDoesNotLeak: a consumer that reads one event, cancels
// and stops reading leaves no goroutine behind, even when the candidates
// emit far more events than the channel buffers.
func TestStreamAbandonedDoesNotLeak(t *testing.T) {
	srv := testServe(t)
	d := srv.NewDelta()
	for i := range 300 {
		car := fmt.Sprintf("Car %d", i)
		if err := d.ApplyTriple(car, kg.TypePredicate, "Automobile"); err != nil {
			t.Fatal(err)
		}
		if err := d.ApplyTriple(car, "assembly", "Germany"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Apply(d); err != nil {
		t.Fatal(err)
	}
	f := New(srv)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	ch, err := f.Stream(ctx, "automobile assembly germany", core.Options{K: 200, Tau: 0.75}, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-ch
	// Let the forwarders fill the buffer and block on it before walking away.
	deadline := time.Now().Add(5 * time.Second)
	for len(ch) < cap(ch) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if leaked := runtime.NumGoroutine() - before; leaked > 0 {
		t.Fatalf("%d goroutine(s) leaked by an abandoned stream", leaked)
	}
}

// TestKeywordSearchSeesIngest: every search assembles over the generation
// it reads, so after an ingest changes the keyword's match set the next
// search reports the new generation and matches the new entity.
func TestKeywordSearchSeesIngest(t *testing.T) {
	srv := testServe(t)
	f := New(srv)
	ctx := context.Background()
	const input = "automobile assembly ger"

	first, err := f.Search(ctx, input, testOpts(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if first.Generation != 0 {
		t.Fatalf("generation = %d, want 0", first.Generation)
	}
	if _, err := f.Search(ctx, input, testOpts(), 2); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Assemblies != 2 {
		t.Fatalf("stats = %+v, want one assembly per search", st)
	}

	// Ingest a new country matched by the "ger" prefix, with its own
	// assembled automobile: the keyword's match set changed.
	d := srv.NewDelta()
	for _, tr := range [][3]string{
		{"Gerolstein", kg.TypePredicate, "Country"},
		{"Opel Astra", kg.TypePredicate, "Automobile"},
		{"Opel Astra", "assembly", "Gerolstein"},
	} {
		if err := d.ApplyTriple(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Apply(d); err != nil {
		t.Fatal(err)
	}

	after, err := f.Search(ctx, input, testOpts(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Assemblies != 3 {
		t.Fatalf("post-ingest stats = %+v, want one assembly per search", st)
	}
	if after.Generation != first.Generation+1 {
		t.Fatalf("post-ingest generation = %d, want %d", after.Generation, first.Generation+1)
	}
	var gerNames []string
	for _, tok := range after.Assembly.Tokens {
		if tok.Norm != "ger" {
			continue
		}
		for _, it := range tok.Interps {
			gerNames = append(gerNames, it.Name)
		}
	}
	if !slices.Contains(gerNames, "Gerolstein") {
		t.Fatalf("post-ingest interps for \"ger\" = %v, want Gerolstein matched", gerNames)
	}
}

// TestSuggestAnswersFromIndexes: autocomplete returns completions across
// all three index paths and never runs a search pipeline.
func TestSuggestAnswersFromIndexes(t *testing.T) {
	srv := testServe(t)
	f := New(srv)

	sug := f.Suggest("ger", 5)
	var texts []string
	for _, s := range sug.Items {
		texts = append(texts, s.Text)
	}
	if !slices.Contains(texts, "Germany") {
		t.Fatalf("suggest(ger) = %v, want Germany", texts)
	}
	if got := f.Suggest("bmw", 10); !suggestHas(got.Items, "Bavarian Motor Works", ViaInitials) {
		t.Fatalf("suggest(bmw) = %+v, want Bavarian Motor Works via initials", got.Items)
	}
	if got := f.Suggest("auto", 5); !suggestHas(got.Items, "Automobile", ViaPrefix) {
		t.Fatalf("suggest(auto) = %+v, want Automobile via prefix", got.Items)
	}
	if got := f.Suggest("assem", 5); !suggestHas(got.Items, "assembly", ViaPrefix) {
		t.Fatalf("suggest(assem) = %+v, want assembly predicate", got.Items)
	}
	if st := srv.Stats(); st.PipelineRuns != 0 {
		t.Fatalf("suggest ran %d search pipelines, want 0", st.PipelineRuns)
	}
	if st := f.Stats(); st.Suggests != 4 {
		t.Fatalf("suggest counter = %d, want 4", st.Suggests)
	}
}

func suggestHas(items []Suggestion, text string, via Via) bool {
	for _, s := range items {
		if s.Text == text && s.Via == via {
			return true
		}
	}
	return false
}

func TestSearchBadRequests(t *testing.T) {
	f := New(testServe(t))
	ctx := context.Background()
	var bad core.BadRequestError
	if _, err := f.Search(ctx, "   ", testOpts(), 0); !errors.As(err, &bad) {
		t.Fatalf("empty keywords: err = %v, want BadRequestError", err)
	}
	if _, err := f.Search(ctx, "germany", core.Options{K: -1}, 0); !errors.As(err, &bad) {
		t.Fatalf("invalid options: err = %v, want BadRequestError", err)
	}
	if _, err := f.Search(ctx, "germany", testOpts(), -1); !errors.As(err, &bad) {
		t.Fatalf("negative budget: err = %v, want BadRequestError", err)
	}
}

// TestSearchNoCandidates: keywords matching nothing return an empty
// response, not an error — the HTTP layer renders "no interpretation".
func TestSearchNoCandidates(t *testing.T) {
	f := New(testServe(t))
	resp, err := f.Search(context.Background(), "zzzzz qqqqq", testOpts(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Executed != 0 || len(resp.Answers) != 0 || len(resp.Assembly.Unmatched) != 2 {
		t.Fatalf("resp = %+v, want empty with 2 unmatched", resp)
	}
}
