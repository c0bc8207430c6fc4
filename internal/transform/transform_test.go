package transform

import (
	"testing"

	"semkg/internal/kg"
)

func testGraph() *kg.Graph {
	b := kg.NewBuilder(8, 8)
	b.AddNode("Audi_TT", "Automobile")
	b.AddNode("BMW_320", "Automobile")
	b.AddNode("Germany", "Country")
	b.AddNode("France", "Country")
	b.AddNode("Peter", "Person")
	return b.Build()
}

func TestLibraryExpand(t *testing.T) {
	lib := NewLibrary()
	lib.AddSynonyms("Car", "Motorcar", "Auto", "Vehicle", "Automobile")
	lib.AddAbbreviation("GER", "Germany")

	got := lib.Expand("Car")
	if len(got) != 5 {
		t.Fatalf("Expand(Car) = %v, want 5 terms", got)
	}
	if got[0] != "Car" {
		t.Errorf("Expand should list the queried term first, got %v", got)
	}
	if len(lib.Expand("GER")) != 2 {
		t.Errorf("Expand(GER) = %v", lib.Expand("GER"))
	}
	if len(lib.Expand("unknown")) != 1 {
		t.Errorf("Expand(unknown) = %v, want just the term", lib.Expand("unknown"))
	}
}

func TestLibraryTransitiveMerge(t *testing.T) {
	lib := NewLibrary()
	lib.AddSynonyms("Car", "Auto")
	lib.AddSynonyms("Auto", "Automobile")
	if !lib.Same("Car", "Automobile") {
		t.Error("transitive synonym classes should merge")
	}
	if !lib.Same("car", "CAR") {
		t.Error("normalized-identical terms are always Same")
	}
	if lib.Same("Car", "Banana") {
		t.Error("unrelated terms should not be Same")
	}
}

func TestLibraryEmptyAdd(t *testing.T) {
	lib := NewLibrary()
	lib.AddSynonyms() // must not panic
	if lib.Same("a", "b") {
		t.Error("empty library should not relate distinct terms")
	}
}

func TestMatchTypesIdentical(t *testing.T) {
	m := NewMatcher(testGraph(), nil)
	got := m.MatchTypes("Automobile")
	if len(got) != 1 {
		t.Fatalf("MatchTypes(Automobile) = %v, want 1 type", got)
	}
	if m.MatchTypes("") != nil {
		t.Error("MatchTypes(\"\") should be nil")
	}
}

func TestMatchTypesSynonym(t *testing.T) {
	lib := NewLibrary()
	lib.AddSynonyms("Car", "Automobile")
	m := NewMatcher(testGraph(), lib)
	got := m.MatchTypes("Car")
	if len(got) != 1 {
		t.Fatalf("MatchTypes(Car) via synonym = %v, want 1", got)
	}
}

func TestMatchTypesNoLibraryNoMatch(t *testing.T) {
	m := NewMatcher(testGraph(), nil)
	// "Car" is neither identical nor an abbreviation of "Automobile":
	// this is exactly the paper's G1_Q mismatch case.
	if got := m.MatchTypes("Car"); len(got) != 0 {
		t.Errorf("MatchTypes(Car) without library = %v, want none", got)
	}
}

func TestMatchNameAbbreviationFallback(t *testing.T) {
	m := NewMatcher(testGraph(), nil)
	g := testGraph()
	got := m.MatchName("GER")
	if len(got) != 1 || g.NodeName(got[0]) != "Germany" {
		t.Fatalf("MatchName(GER) = %v, want [Germany]", names(g, got))
	}
}

func TestMatchNodeSpecific(t *testing.T) {
	lib := NewLibrary()
	lib.AddAbbreviation("GER", "Germany")
	g := testGraph()
	m := NewMatcher(g, lib)

	got := m.MatchNode("Germany", "Country")
	if len(got) != 1 || g.NodeName(got[0]) != "Germany" {
		t.Fatalf("MatchNode(Germany,Country) = %v", names(g, got))
	}
	got = m.MatchNode("GER", "Country")
	if len(got) != 1 || g.NodeName(got[0]) != "Germany" {
		t.Fatalf("MatchNode(GER,Country) = %v", names(g, got))
	}
	// Type filter rejects mismatched types.
	if got := m.MatchNode("Germany", "Person"); len(got) != 0 {
		t.Errorf("MatchNode(Germany,Person) = %v, want none", names(g, got))
	}
}

func TestMatchNodeTarget(t *testing.T) {
	g := testGraph()
	m := NewMatcher(g, nil)
	got := m.MatchNode("", "Automobile")
	if len(got) != 2 {
		t.Fatalf("MatchNode(target Automobile) = %v, want 2", names(g, got))
	}
	if got := m.MatchNode("", "Spaceship"); len(got) != 0 {
		t.Errorf("MatchNode(target Spaceship) = %v, want none", names(g, got))
	}
}

func TestMatchNodeUntypedCandidate(t *testing.T) {
	b := kg.NewBuilder(2, 0)
	b.AddNode("Mystery", "") // untyped node
	g := b.Build()
	m := NewMatcher(g, nil)
	got := m.MatchNode("Mystery", "Country")
	if len(got) != 1 {
		t.Errorf("untyped node should still match by name, got %v", names(g, got))
	}
}

func names(g *kg.Graph, ids []kg.NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.NodeName(id)
	}
	return out
}
