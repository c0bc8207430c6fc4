package semgraph

import (
	"math"
	"testing"

	"semkg/internal/embed"
	"semkg/internal/kg"
)

// testSetup builds a 4-predicate graph and a hand-crafted predicate space:
// product ≈ assembly (0.98-ish), designer somewhat similar, language far.
func testSetup(t *testing.T) (*kg.Graph, *embed.Space) {
	t.Helper()
	b := kg.NewBuilder(8, 8)
	auto := b.AddNode("Audi", "Automobile")
	ger := b.AddNode("Germany", "Country")
	person := b.AddNode("Peter", "Person")
	lang := b.AddNode("German", "Language")
	b.AddEdge(auto, ger, "assembly")
	b.AddEdge(auto, person, "designer")
	b.AddEdge(ger, lang, "language")
	b.AddEdge(auto, ger, "product")
	g := b.Build()

	vecs := map[string]embed.Vector{
		"assembly": {1, 0.1, 0},
		"designer": {0.6, 0.8, 0},
		"language": {-0.2, 0.1, 0.97},
		"product":  {0.99, 0.05, 0.02},
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
	return g, sp
}

func TestNewWeighterExactPredicate(t *testing.T) {
	g, sp := testSetup(t)
	w, err := NewWeighter(g, sp, []string{"product"})
	if err != nil {
		t.Fatal(err)
	}
	if w.Segments() != 1 {
		t.Fatalf("Segments = %d", w.Segments())
	}
	prod := g.PredByName("product")
	asm := g.PredByName("assembly")
	lang := g.PredByName("language")
	if got := w.Weight(prod, 0); got != 1 {
		t.Errorf("Weight(product) = %v, want 1 (self)", got)
	}
	if wa := w.Weight(asm, 0); wa < 0.9 {
		t.Errorf("Weight(assembly) = %v, want > 0.9", wa)
	}
	// Unrelated predicates sit below the angular midpoint 0.5 (negative
	// cosine), far under any useful τ.
	if wl := w.Weight(lang, 0); wl >= 0.5 {
		t.Errorf("Weight(language) = %v, want < 0.5", wl)
	}
}

func TestWeightClamped(t *testing.T) {
	g, sp := testSetup(t)
	w, err := NewWeighter(g, sp, []string{"language"})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < g.NumPredicates(); p++ {
		v := w.Weight(kg.PredID(p), 0)
		if v < MinWeight || v > 1 {
			t.Errorf("Weight(%s) = %v out of (0,1]", g.PredName(kg.PredID(p)), v)
		}
	}
}

func TestResolvePredicateFallback(t *testing.T) {
	g, _ := testSetup(t)
	p, err := ResolvePredicate(g, "assembley") // typo
	if err != nil {
		t.Fatal(err)
	}
	if g.PredName(p) != "assembly" {
		t.Errorf("fallback resolved to %q, want assembly", g.PredName(p))
	}
	if _, err := ResolvePredicate(kg.NewBuilder(0, 0).Build(), "x"); err == nil {
		t.Error("empty vocabulary should fail")
	}
}

func TestNewWeighterValidation(t *testing.T) {
	g, sp := testSetup(t)
	if _, err := NewWeighter(g, sp, nil); err == nil {
		t.Error("no predicates should fail")
	}
	other, err := embed.NewSpace([]string{"only"}, []embed.Vector{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWeighter(g, other, []string{"assembly"}); err == nil {
		t.Error("mismatched space size should fail")
	}
}

func TestNodeMaxSingleSegment(t *testing.T) {
	g, sp := testSetup(t)
	w, err := NewWeighter(g, sp, []string{"product"})
	if err != nil {
		t.Fatal(err)
	}
	auto := g.NodeByName("Audi")
	// Audi's incident predicates: assembly, designer, product.
	want := math.Max(w.Weight(g.PredByName("assembly"), 0),
		math.Max(w.Weight(g.PredByName("designer"), 0), w.Weight(g.PredByName("product"), 0)))
	if got := w.NodeMax(auto, 0); got != want {
		t.Errorf("NodeMax(Audi) = %v, want %v", got, want)
	}
	// A repeat call returns the same value: NodeMax keeps no state.
	if got := w.NodeMax(auto, 0); got != want {
		t.Errorf("repeat NodeMax = %v, want %v", got, want)
	}
	// Isolated-looking node: German has one incident edge (language).
	lang := g.NodeByName("German")
	if got := w.NodeMax(lang, 0); got != w.Weight(g.PredByName("language"), 0) {
		t.Errorf("NodeMax(German) = %v", got)
	}
}

func TestNodeMaxSuffix(t *testing.T) {
	g, sp := testSetup(t)
	// Two segments: first wants language (Audi's edges score low), second
	// wants product (Audi's edges score high). The suffix max at segment 0
	// must reflect the better later segment.
	w, err := NewWeighter(g, sp, []string{"language", "product"})
	if err != nil {
		t.Fatal(err)
	}
	auto := g.NodeByName("Audi")
	seg0 := w.NodeMax(auto, 0)
	seg1 := w.NodeMax(auto, 1)
	if seg0 < seg1 {
		t.Errorf("suffix max property violated: NodeMax(seg0)=%v < NodeMax(seg1)=%v", seg0, seg1)
	}
	if seg1 < 0.9 {
		t.Errorf("NodeMax(Audi, product segment) = %v, want ~1", seg1)
	}
}
