package semkg_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"semkg"
)

const sampleTriples = `# cars of two countries, several schemas
Germany	type	Country
France	type	Country
Munich	type	City
Paris	type	City
BMW_Co	type	Company
Munich	country	Germany
Paris	country	France
BMW_Co	locationCountry	Germany
BMW_320	type	Automobile
Audi_TT	type	Automobile
BMW_Z4	type	Automobile
BMW_X6	type	Automobile
Clio	type	Automobile
BMW_320	assembly	Germany
BMW_320	product	Germany
Audi_TT	assembly	Germany
Audi_TT	manufacturer	BMW_Co
BMW_Z4	assembly	Munich
BMW_X6	manufacturer	BMW_Co
BMW_X6	product	Germany
Clio	assembly	France
`

func buildEngine(t *testing.T) (*semkg.Engine, *semkg.Graph) {
	t.Helper()
	g, err := semkg.LoadTriples(strings.NewReader(sampleTriples))
	if err != nil {
		t.Fatal(err)
	}
	model, err := semkg.Train(context.Background(), g, semkg.TrainConfig{Dim: 24, Epochs: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	lib := semkg.NewLibrary()
	lib.AddSynonyms("Car", "Automobile")
	eng, err := semkg.NewEngine(g, model, lib)
	if err != nil {
		t.Fatal(err)
	}
	return eng, g
}

func TestPublicAPIQuickstart(t *testing.T) {
	eng, _ := buildEngine(t)
	res, err := eng.Search(context.Background(), &semkg.Query{
		Nodes: []semkg.QueryNode{
			{ID: "car", Type: "Car"}, // synonym via library
			{ID: "c", Name: "Germany", Type: "Country"},
		},
		Edges: []semkg.QueryEdge{{From: "car", To: "c", Predicate: "assembly"}},
	}, semkg.Options{K: 10, Tau: 0.25, MaxHops: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, a := range res.Answers {
		got[a.PivotName] = true
	}
	for _, want := range []string{"BMW_320", "Audi_TT"} {
		if !got[want] {
			t.Errorf("missing %s in %v", want, res.Entities())
		}
	}
	if got["Clio"] {
		t.Error("French car returned for German query")
	}
}

func TestPublicAPITimeBounded(t *testing.T) {
	eng, _ := buildEngine(t)
	res, err := eng.Search(context.Background(), &semkg.Query{
		Nodes: []semkg.QueryNode{
			{ID: "car", Type: "Automobile"},
			{ID: "c", Name: "Germany", Type: "Country"},
		},
		Edges: []semkg.QueryEdge{{From: "car", To: "c", Predicate: "assembly"}},
	}, semkg.Options{K: 10, Tau: 0.25, MaxHops: 3, TimeBound: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("time-bounded search found nothing")
	}
}

// TestPublicAPIStream exercises the streaming facade: typed events arrive
// in documented order and the drained stream equals batch Search.
func TestPublicAPIStream(t *testing.T) {
	eng, _ := buildEngine(t)
	q := &semkg.Query{
		Nodes: []semkg.QueryNode{
			{ID: "car", Type: "Automobile"},
			{ID: "c", Name: "Germany", Type: "Country"},
		},
		Edges: []semkg.QueryEdge{{From: "car", To: "c", Predicate: "assembly"}},
	}
	opts := semkg.Options{K: 10, Tau: 0.25, MaxHops: 3, TimeBound: 2 * time.Second}

	st, err := eng.Stream(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sawTopK, sawResult bool
	var final *semkg.Result
	for ev := range st.Events() {
		switch e := ev.(type) {
		case semkg.TopKEvent:
			if sawResult {
				t.Error("topk event after terminal result")
			}
			sawTopK = true
		case semkg.ResultEvent:
			sawResult = true
			final = e.Result
		}
	}
	if !sawTopK || !sawResult {
		t.Fatalf("event coverage: topk=%v result=%v", sawTopK, sawResult)
	}
	if final != st.Result() {
		t.Error("terminal event does not carry Stream.Result")
	}

	batch, err := eng.Search(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Answers) != len(final.Answers) {
		t.Fatalf("stream found %d answers, batch %d", len(final.Answers), len(batch.Answers))
	}
	for i := range batch.Answers {
		if batch.Answers[i].PivotName != final.Answers[i].PivotName {
			t.Errorf("answer %d: %s vs %s", i, final.Answers[i].PivotName, batch.Answers[i].PivotName)
		}
	}
}

func TestModelRoundTripThroughFacade(t *testing.T) {
	g, err := semkg.LoadTriples(strings.NewReader(sampleTriples))
	if err != nil {
		t.Fatal(err)
	}
	model, err := semkg.Train(context.Background(), g, semkg.TrainConfig{Dim: 8, Epochs: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := semkg.SaveModel(&buf, model); err != nil {
		t.Fatal(err)
	}
	loaded, err := semkg.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := semkg.NewEngine(g, loaded, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGraphRoundTripThroughFacade(t *testing.T) {
	g, err := semkg.LoadTriples(strings.NewReader(sampleTriples))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := semkg.SaveTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := semkg.LoadTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Error("round trip changed the graph")
	}
}

func TestBuilderThroughFacade(t *testing.T) {
	b := semkg.NewGraphBuilder(4, 4)
	x := b.AddNode("x", "T")
	y := b.AddNode("y", "T")
	b.AddEdge(x, y, "p")
	g := b.Build()
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Error("builder facade broken")
	}
	if _, err := semkg.TrainTransH(context.Background(), g, semkg.TrainConfig{Dim: 4, Epochs: 2}); err != nil {
		t.Errorf("TransH through facade: %v", err)
	}
}

// TestBatchThroughFacade: Serving.SearchBatch over the facade wrapper
// answers a mixed group positionally — overlapping shapes share
// sub-query searches, a bad item fails alone, and outcomes equal the
// items run separately.
func TestBatchThroughFacade(t *testing.T) {
	eng, _ := buildEngine(t)
	srv := semkg.NewServing(eng, semkg.ServeConfig{})
	q := &semkg.Query{
		Nodes: []semkg.QueryNode{
			{ID: "car", Type: "Automobile"},
			{ID: "c", Name: "Germany", Type: "Country"},
		},
		Edges: []semkg.QueryEdge{{From: "car", To: "c", Predicate: "assembly"}},
	}
	ctx := context.Background()
	out := srv.SearchBatch(ctx, []semkg.BatchItem{
		{Query: q, Opts: semkg.Options{K: 5, Tau: 0.4}},
		{Query: q, Opts: semkg.Options{K: 2, Tau: 0.4}},
		{Query: &semkg.Query{}, Opts: semkg.Options{K: 5, Tau: 0.4}},
	})
	if len(out) != 3 {
		t.Fatalf("got %d outcomes, want 3", len(out))
	}
	if out[0].Err != nil || out[1].Err != nil {
		t.Fatalf("good items failed: %v / %v", out[0].Err, out[1].Err)
	}
	if out[2].Err == nil {
		t.Fatal("empty query did not fail its own slot")
	}
	if len(out[1].Result.Answers) != 2 {
		t.Fatalf("K=2 item returned %d answers", len(out[1].Result.Answers))
	}
	solo, err := srv.Search(ctx, q, semkg.Options{K: 5, Tau: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(solo.Answers) != len(out[0].Result.Answers) {
		t.Fatalf("batch answers differ from solo: %d vs %d", len(out[0].Result.Answers), len(solo.Answers))
	}
	if st := srv.Stats(); st.SubHits == 0 {
		t.Fatalf("overlapping batch shared no sub-searches: %+v", st)
	}
}
