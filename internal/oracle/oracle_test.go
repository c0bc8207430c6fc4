package oracle

import (
	"strings"
	"testing"

	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/query"
)

// handWorld is four automobiles around Germany: one assembled there
// (weight 1), one a product of it (0.9), two merely sold there (0.5, a
// tie), plus an unrelated edge. Query: ?x:Automobile -assembly- Germany.
func handWorld(t *testing.T) (World, *query.Graph, *query.Decomposition) {
	t.Helper()
	b := kg.NewBuilder(8, 8)
	de := b.AddNode("Germany", "Country")
	fr := b.AddNode("France", "Country")
	for _, e := range [][2]string{{"A1", "assembly"}, {"A2", "product"}, {"A3", "sold"}, {"A4", "sold"}} {
		b.AddEdge(b.AddNode(e[0], "Automobile"), de, e[1])
	}
	b.AddEdge(b.AddNode("A5", "Automobile"), fr, "assembly")
	g := b.Build()
	vecs := map[string]embed.Vector{"assembly": {1, 0}, "product": {0.8, 0.6}, "sold": {0, 1}}
	ordered := make([]embed.Vector, g.NumPredicates())
	for i, name := range g.Predicates() {
		ordered[i] = vecs[name]
	}
	sp, err := embed.NewSpace(g.Predicates(), ordered)
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Graph{
		Nodes: []query.Node{{ID: "x", Type: "Automobile"}, {ID: "c", Name: "Germany", Type: "Country"}},
		Edges: []query.Edge{{From: "x", To: "c", Predicate: "assembly"}},
	}
	d, err := query.Decompose(q, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return World{G: g, Space: sp, Resolve: g.PredByName}, q, d
}

func answer(pivot, pred string, pss float64) Answer {
	return Answer{Pivot: pivot, Score: pss, Parts: []Part{{PSS: pss, Steps: []Step{{pivot, pred, "Germany"}}}}}
}

// TestCheckAcceptsTheTruthAndRejectsThreeLies: the comparer passes both
// legal top-3s (the tie at the 3rd score may go either way) and rejects an
// answer missing above the tie, a score off by 1e-6, and a path over an
// edge the graph does not have.
func TestCheckAcceptsTheTruthAndRejectsThreeLies(t *testing.T) {
	w, q, d := handWorld(t)
	r := w.Rank(q, d, 0.4, 3, 3)
	if len(r.All) != 4 || r.All[0].Score != 1 || r.All[2].Score != r.All[3].Score {
		t.Fatalf("ranking = %+v, want A1 1.0, A2 0.9, then A3 and A4 tied at 0.5", r.All)
	}
	a1, a2 := answer("A1", "assembly", 1), answer("A2", "product", r.All[1].Score)
	a3, a4 := answer("A3", "sold", r.All[2].Score), answer("A4", "sold", r.All[3].Score)
	for _, truth := range [][]Answer{{a1, a2, a3}, {a1, a2, a4}} {
		if err := r.Check(truth, false); err != nil {
			t.Errorf("a correct top-3 was rejected: %v", err)
		}
	}

	off := answer("A2", "product", a2.Score+1e-6)
	noEdge := answer("A2", "assembly", a2.Score) // A2 is a product of Germany, not assembled there
	for _, lie := range []struct {
		name    string
		answers []Answer
		want    string
	}{
		{"missing above the tie", []Answer{a1, a3, a4}, "oracle"},
		{"score off by 1e-6", []Answer{a1, off, a3}, "its path gives"},
		{"edge not in the graph", []Answer{a1, noEdge, a3}, "no edge"},
		{"too few answers", []Answer{a1, a2}, "2 answers, want 3"},
		{"an entity twice", []Answer{a1, a1, a2}, "repeated"},
		{"path from a non-anchor", []Answer{{Pivot: "A5", Score: 1, Parts: []Part{{PSS: 1,
			Steps: []Step{{"A5", "assembly", "France"}}}}}}, "not a path from an anchor"},
	} {
		err := r.Check(lie.answers, false)
		if err == nil || !strings.Contains(err.Error(), lie.want) {
			t.Errorf("%s: Check = %v, want an error mentioning %q", lie.name, err, lie.want)
		}
	}

	// Compare alone, scores only: the same three verdicts.
	got := func(s ...Scored) []Scored { return s }
	all := r.All
	if err := Compare(got(all[0], all[1], all[3]), all, 3, false); err != nil {
		t.Errorf("the other side of the tie was rejected: %v", err)
	}
	if err := Compare(got(all[0], all[2], all[3]), all, 3, false); err == nil {
		t.Error("Compare accepted a top-3 missing the entity above the tie")
	}
	if err := Compare(got(all[0], Scored{all[1].Pivot, all[1].Score + 1e-6}, all[2]), all, 3, false); err == nil {
		t.Error("Compare accepted a score off by 1e-6")
	}

	// The approximate rule: fewer answers pass, missing ones included, but
	// every answer at its oracle score and in rank order — a score above
	// or below the oracle's never does.
	if err := r.Check([]Answer{a2}, true); err != nil {
		t.Errorf("a sound approximate result was rejected: %v", err)
	}
	if err := Compare(got(all[0], all[2]), all, 3, true); err != nil {
		t.Errorf("an approximate result missing an entity was rejected: %v", err)
	}
	for name, lie := range map[string][]Scored{
		"score above the oracle's": got(Scored{all[1].Pivot, all[1].Score + 1e-6}),
		"score below the oracle's": got(Scored{all[1].Pivot, all[1].Score - 1e-6}),
		"out of rank order":        got(all[2], all[1]),
	} {
		if err := Compare(lie, all, 3, true); err == nil {
			t.Errorf("the approximate rule accepted a %s", name)
		}
	}
}

// TestPhiByScan pins φ's three routes on the hand world: exact name,
// abbreviation fallback, and target nodes by (synonym-expanded) type.
func TestPhiByScan(t *testing.T) {
	w, _, _ := handWorld(t)
	names := func(ids []kg.NodeID) string {
		var out []string
		for _, u := range ids {
			out = append(out, w.G.NodeName(u))
		}
		return strings.Join(out, ",")
	}
	expand := func(s string) []string {
		if s == "Car" {
			return []string{"Car", "Automobile"}
		}
		return []string{s}
	}
	for _, c := range []struct{ name, typ, want string }{
		{"Germany", "Country", "Germany"},
		{"Germany", "Automobile", ""}, // typed, and the type does not match
		{"Ger", "", "Germany"},        // prefix abbreviation
		{"", "Car", "A1,A2,A3,A4,A5"}, // synonym-expanded type
		{"", "auto", "A1,A2,A3,A4,A5"},
		{"Nowhere", "", ""},
	} {
		if got := names(Phi(w.G, expand, c.name, c.typ)); got != c.want {
			t.Errorf("Phi(%q, %q) = %q, want %q", c.name, c.typ, got, c.want)
		}
	}
}
