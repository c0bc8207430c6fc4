package query

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// chainQuery reproduces the paper's Figure 3(a): find automobiles (v1)
// produced in China (v2) with German (v4) engines (v3).
func chainQuery() *Graph {
	return &Graph{
		Nodes: []Node{
			{ID: "v1", Type: "Automobile"},
			{ID: "v2", Name: "China", Type: "Country"},
			{ID: "v3", Type: "Device"},
			{ID: "v4", Name: "Germany", Type: "Country"},
		},
		Edges: []Edge{
			{From: "v1", To: "v2", Predicate: "assembly"},
			{From: "v1", To: "v3", Predicate: "engine"},
			{From: "v3", To: "v4", Predicate: "manufacturer"},
		},
	}
}

// triangleQuery reproduces Figure 3(c).
func triangleQuery() *Graph {
	return &Graph{
		Nodes: []Node{
			{ID: "v1", Type: "Automobile"},
			{ID: "v2", Type: "Person"},
			{ID: "v3", Name: "Germany", Type: "Country"},
		},
		Edges: []Edge{
			{From: "v1", To: "v3", Predicate: "assembly"},
			{From: "v2", To: "v3", Predicate: "nationality"},
			{From: "v2", To: "v1", Predicate: "designer"},
		},
	}
}

// complexQuery reproduces Figure 16(a): Spanish soccer players who played
// for clubs of England and Spain.
func complexQuery() *Graph {
	return &Graph{
		Nodes: []Node{
			{ID: "v1", Type: "SoccerClub"},
			{ID: "v2", Type: "Person"},
			{ID: "v3", Name: "Spain", Type: "Country"},
			{ID: "v4", Type: "SoccerClub"},
			{ID: "v5", Name: "England", Type: "Country"},
		},
		Edges: []Edge{
			{From: "v1", To: "v3", Predicate: "ground"},      // e1
			{From: "v2", To: "v3", Predicate: "nationality"}, // e2
			{From: "v2", To: "v1", Predicate: "team"},        // e3
			{From: "v2", To: "v4", Predicate: "team"},        // e4
			{From: "v4", To: "v5", Predicate: "ground"},      // e5
		},
	}
}

func TestValidateOK(t *testing.T) {
	for name, g := range map[string]*Graph{
		"chain": chainQuery(), "triangle": triangleQuery(), "complex": complexQuery(),
	} {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: Validate = %v", name, err)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	base := chainQuery()
	cases := map[string]func(*Graph){
		"no nodes":        func(g *Graph) { g.Nodes = nil },
		"no edges":        func(g *Graph) { g.Edges = nil },
		"dup id":          func(g *Graph) { g.Nodes[1].ID = "v1" },
		"empty id":        func(g *Graph) { g.Nodes[0].ID = "" },
		"no name or type": func(g *Graph) { g.Nodes[0].Type = "" },
		"bad edge ref":    func(g *Graph) { g.Edges[0].To = "nope" },
		"self loop":       func(g *Graph) { g.Edges[0].To = "v1" },
		"no predicate":    func(g *Graph) { g.Edges[0].Predicate = "" },
		"no specific": func(g *Graph) {
			for i := range g.Nodes {
				g.Nodes[i].Name = ""
			}
		},
		"no target": func(g *Graph) {
			for i := range g.Nodes {
				if g.Nodes[i].Name == "" {
					g.Nodes[i].Name = "x" + g.Nodes[i].ID
				}
			}
		},
		"disconnected": func(g *Graph) {
			g.Nodes = append(g.Nodes, Node{ID: "v9", Name: "Mars", Type: "Planet"},
				Node{ID: "v10", Type: "Rover"})
			g.Edges = append(g.Edges, Edge{From: "v9", To: "v10", Predicate: "landed"})
			g.Edges = g.Edges[1:] // detach part of the original graph too
		},
	}
	for name, mutate := range cases {
		g := *base
		g.Nodes = append([]Node(nil), base.Nodes...)
		g.Edges = append([]Edge(nil), base.Edges...)
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded, want error", name)
		}
	}
}

func TestTargetsAndSpecifics(t *testing.T) {
	g := chainQuery()
	if got := g.Targets(); len(got) != 2 || got[0] != "v1" || got[1] != "v3" {
		t.Errorf("Targets = %v", got)
	}
	if got := g.Specifics(); len(got) != 2 || got[0] != "v2" || got[1] != "v4" {
		t.Errorf("Specifics = %v", got)
	}
}

// TestDecomposeChain reproduces the paper's Example 2: the chain query
// splits at pivot v1 into g1 = <v2-e1-v1> and g2 = <v4-e3-v3-e2-v1>.
func TestDecomposeChain(t *testing.T) {
	d, err := DecomposeWithPivot(chainQuery(), "v1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subs) != 2 {
		t.Fatalf("got %d sub-queries, want 2: %+v", len(d.Subs), d.Subs)
	}
	if got := pathString(d.Subs[0]); got != "v2-v1" {
		t.Errorf("g1 = %s, want v2-v1", got)
	}
	if got := pathString(d.Subs[1]); got != "v4-v3-v1" {
		t.Errorf("g2 = %s, want v4-v3-v1", got)
	}
	for i, s := range d.Subs {
		if s.End() != "v1" {
			t.Errorf("sub %d ends at %s, want pivot v1", i, s.End())
		}
	}
}

// TestDecomposeTriangle: pivot v1 gives g1 = <v3-e1-v1>,
// g2 = <v3-e2-v2-e3-v1> (both edge-disjoint, both end at pivot).
func TestDecomposeTriangle(t *testing.T) {
	d, err := DecomposeWithPivot(triangleQuery(), "v1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subs) != 2 {
		t.Fatalf("got %d sub-queries, want 2", len(d.Subs))
	}
	seenEdges := 0
	for _, s := range d.Subs {
		seenEdges += s.Len()
		if s.End() != "v1" {
			t.Errorf("sub %v should end at pivot", s.NodeIDs)
		}
	}
	if seenEdges != 3 {
		t.Errorf("edge cover uses %d edge slots, want 3", seenEdges)
	}
}

// TestDecomposeComplexPivots reproduces the paper's Figure 16(b) and
// Table V: pivot v1 (group A) needs a 3-edge sub-query (the walk from v5
// must continue through v2 to reach v1), while pivot v2 (group B) splits
// into sub-queries of at most 2 edges — which is why v2 is the better
// pivot in Table V.
func TestDecomposeComplexPivots(t *testing.T) {
	a, err := DecomposeWithPivot(complexQuery(), "v1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Subs) != 3 {
		t.Fatalf("pivot v1: got %d subs, want 3: %v", len(a.Subs), describe(a))
	}
	maxLen := 0
	for _, s := range a.Subs {
		if s.End() != "v1" {
			t.Errorf("pivot v1: sub %v must end at pivot", s.NodeIDs)
		}
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	if maxLen != 3 {
		t.Errorf("pivot v1: longest sub-query = %d edges, want 3 (%v)", maxLen, describe(a))
	}

	b, err := DecomposeWithPivot(complexQuery(), "v2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Subs) != 3 {
		t.Fatalf("pivot v2: got %d subs, want 3: %v", len(b.Subs), describe(b))
	}
	for _, s := range b.Subs {
		if s.End() != "v2" {
			t.Errorf("pivot v2: sub %v must end at pivot (%v)", s.NodeIDs, describe(b))
		}
		if s.Len() > 2 {
			t.Errorf("pivot v2: sub %v has %d edges, want <= 2", s.NodeIDs, s.Len())
		}
	}
	if a.Cost <= b.Cost {
		t.Errorf("cost(pivot v1)=%.0f should exceed cost(pivot v2)=%.0f", a.Cost, b.Cost)
	}
}

// TestDecomposeCoversAllEdges checks that the union of sub-queries covers
// every query edge (Definition 6: E_Q = ∪E_i) and that each sub-query is a
// simple path from a specific node to the pivot.
func TestDecomposeCoversAllEdges(t *testing.T) {
	for _, g := range []*Graph{chainQuery(), triangleQuery(), complexQuery()} {
		for _, pivot := range g.Targets() {
			d, err := DecomposeWithPivot(g, pivot, Options{})
			if err != nil {
				t.Fatalf("pivot %s: %v", pivot, err)
			}
			type ek struct{ f, to, p string }
			seen := make(map[ek]bool)
			for _, s := range d.Subs {
				if len(s.NodeIDs) != s.Len()+1 {
					t.Errorf("pivot %s: sub %v malformed", pivot, s.NodeIDs)
				}
				n, ok := g.NodeByID(s.Anchor())
				if !ok || !n.Specific() {
					t.Errorf("pivot %s: sub %v anchor is not specific", pivot, s.NodeIDs)
				}
				if s.End() != pivot {
					t.Errorf("pivot %s: sub %v does not end at pivot", pivot, s.NodeIDs)
				}
				ids := make(map[string]bool)
				for _, id := range s.NodeIDs {
					if ids[id] {
						t.Errorf("pivot %s: sub %v repeats node %s", pivot, s.NodeIDs, id)
					}
					ids[id] = true
				}
				for _, e := range s.Edges {
					seen[ek{e.From, e.To, e.Predicate}] = true
				}
			}
			for _, e := range g.Edges {
				if !seen[ek{e.From, e.To, e.Predicate}] {
					t.Errorf("pivot %s: edge %+v not covered", pivot, e)
				}
			}
		}
	}
}

func TestDecomposeMinCostPrefersCheapPivot(t *testing.T) {
	// On the complex query the minCost strategy should prefer v2: all its
	// sub-queries are short, whereas pivot v1 requires a 2-edge residual
	// path (larger d̄^(n̂·|E_i|) term).
	d, err := Decompose(complexQuery(), Options{Strategy: MinCost})
	if err != nil {
		t.Fatal(err)
	}
	if d.Pivot != "v2" {
		t.Errorf("minCost pivot = %s, want v2 (%v)", d.Pivot, describe(d))
	}
}

func TestDecomposeRandomPivot(t *testing.T) {
	if _, err := Decompose(chainQuery(), Options{Strategy: RandomPivot}); err == nil {
		t.Error("RandomPivot without Rng should fail")
	}
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]bool)
	for i := 0; i < 30; i++ {
		d, err := Decompose(chainQuery(), Options{Strategy: RandomPivot, Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		seen[d.Pivot] = true
	}
	if len(seen) < 2 {
		t.Errorf("random pivot never varied: %v", seen)
	}
}

func TestDecomposeBadPivot(t *testing.T) {
	if _, err := DecomposeWithPivot(chainQuery(), "nope", Options{}); err == nil {
		t.Error("unknown pivot should fail")
	}
	if _, err := DecomposeWithPivot(chainQuery(), "v2", Options{}); err == nil {
		t.Error("specific-node pivot should fail")
	}
}

func TestDecomposeInvalidStrategy(t *testing.T) {
	if _, err := Decompose(chainQuery(), Options{Strategy: PivotStrategy(99)}); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestDecomposeSingleEdge(t *testing.T) {
	g := &Graph{
		Nodes: []Node{
			{ID: "v1", Type: "Automobile"},
			{ID: "v2", Name: "Germany", Type: "Country"},
		},
		Edges: []Edge{{From: "v1", To: "v2", Predicate: "assembly"}},
	}
	d, err := Decompose(g, Options{Strategy: MinCost})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Subs) != 1 || d.Subs[0].Len() != 1 || d.Pivot != "v1" {
		t.Errorf("single-edge decomposition = %v", describe(d))
	}
	if d.Subs[0].Anchor() != "v2" || d.Subs[0].End() != "v1" {
		t.Errorf("anchor/end = %s/%s", d.Subs[0].Anchor(), d.Subs[0].End())
	}
}

// TestDecomposeDanglingTargetLeaf: a target leaf hanging off the pivot can
// only be covered when the leaf itself is the pivot; minCost must discover
// that, and the infeasible explicit pivot must fail cleanly.
func TestDecomposeDanglingTargetLeaf(t *testing.T) {
	g := &Graph{
		Nodes: []Node{
			{ID: "v1", Type: "A"},
			{ID: "v2", Name: "X", Type: "B"},
			{ID: "v3", Type: "C"}, // leaf target hanging off v1
		},
		Edges: []Edge{
			{From: "v2", To: "v1", Predicate: "p"},
			{From: "v1", To: "v3", Predicate: "q"},
		},
	}
	if _, err := DecomposeWithPivot(g, "v1", Options{}); err == nil {
		t.Error("pivot v1 cannot cover the dangling edge; want error")
	}
	d, err := Decompose(g, Options{Strategy: MinCost})
	if err != nil {
		t.Fatalf("minCost should find the feasible pivot: %v", err)
	}
	if d.Pivot != "v3" {
		t.Errorf("pivot = %s, want v3", d.Pivot)
	}
	if len(d.Subs) != 1 || d.Subs[0].Len() != 2 {
		t.Errorf("decomposition = %v", describe(d))
	}
}

// TestDecomposeInfeasibleCycle: a target-only cycle plus a pendant pivot
// admits no simple-path cover from the single specific node; every pivot
// must fail with a clean error (and the dead-end walks must roll their
// edge coverage back rather than silently dropping edges).
func TestDecomposeInfeasibleCycle(t *testing.T) {
	g := &Graph{
		Nodes: []Node{
			{ID: "v1", Type: "A"},
			{ID: "v2", Name: "X", Type: "B"},
			{ID: "v3", Type: "C"},
			{ID: "v4", Type: "D"},
			{ID: "v5", Type: "E"},
		},
		Edges: []Edge{
			{From: "v2", To: "v3", Predicate: "e1"},
			{From: "v3", To: "v1", Predicate: "e2"},
			{From: "v3", To: "v4", Predicate: "e3"},
			{From: "v4", To: "v5", Predicate: "e4"},
			{From: "v5", To: "v3", Predicate: "e5"},
		},
	}
	if _, err := Decompose(g, Options{Strategy: MinCost}); err == nil {
		t.Error("infeasible query should fail decomposition")
	}
}

// TestDecomposeRandomInvariants stress-tests the walk/rollback machinery:
// on random connected query graphs, every successful decomposition must
// cover all edges with simple paths from specific nodes to the pivot.
func TestDecomposeRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	type ek struct{ f, to, p string }
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(6) + 2
		g := &Graph{}
		for i := 0; i < n; i++ {
			node := Node{ID: fmt.Sprintf("v%d", i), Type: "T"}
			if i == 0 || rng.Float64() < 0.3 {
				node.Name = fmt.Sprintf("N%d", i)
			}
			g.Nodes = append(g.Nodes, node)
		}
		// Random spanning chain plus extra edges for cycles.
		for i := 1; i < n; i++ {
			j := rng.Intn(i)
			g.Edges = append(g.Edges, Edge{From: g.Nodes[j].ID, To: g.Nodes[i].ID,
				Predicate: fmt.Sprintf("p%d", i)})
		}
		extra := rng.Intn(3)
		for x := 0; x < extra; x++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			g.Edges = append(g.Edges, Edge{From: g.Nodes[a].ID, To: g.Nodes[b].ID,
				Predicate: fmt.Sprintf("x%d", x)})
		}
		if g.Validate() != nil {
			continue // e.g. all nodes specific: no targets
		}
		for _, pivot := range g.Targets() {
			d, err := DecomposeWithPivot(g, pivot, Options{})
			if err != nil {
				continue // infeasible pivots are allowed to fail
			}
			seen := map[ek]bool{}
			for _, s := range d.Subs {
				if s.End() != pivot {
					t.Fatalf("trial %d: sub %v does not end at pivot %s", trial, s.NodeIDs, pivot)
				}
				anchor, _ := g.NodeByID(s.Anchor())
				if !anchor.Specific() {
					t.Fatalf("trial %d: sub %v anchored at target", trial, s.NodeIDs)
				}
				ids := map[string]bool{}
				for _, id := range s.NodeIDs {
					if ids[id] {
						t.Fatalf("trial %d: sub %v repeats %s", trial, s.NodeIDs, id)
					}
					ids[id] = true
				}
				if len(s.NodeIDs) != s.Len()+1 {
					t.Fatalf("trial %d: malformed sub %v", trial, s.NodeIDs)
				}
				for i, e := range s.Edges {
					// Each edge must connect consecutive path nodes.
					a, b := s.NodeIDs[i], s.NodeIDs[i+1]
					if !(e.From == a && e.To == b) && !(e.From == b && e.To == a) {
						t.Fatalf("trial %d: edge %+v does not connect %s-%s", trial, e, a, b)
					}
					seen[ek{e.From, e.To, e.Predicate}] = true
				}
			}
			for _, e := range g.Edges {
				if !seen[ek{e.From, e.To, e.Predicate}] {
					t.Fatalf("trial %d pivot %s: edge %+v dropped from cover (%s)",
						trial, pivot, e, describe(d))
				}
			}
		}
	}
}

func pathString(s SubQuery) string { return strings.Join(s.NodeIDs, "-") }

func describe(d *Decomposition) string {
	var b strings.Builder
	b.WriteString("pivot=" + d.Pivot)
	for _, s := range d.Subs {
		b.WriteString(" [" + pathString(s) + "]")
	}
	return b.String()
}

// keyQuery has a multi-byte ID, a name holding the field separator and an
// untyped node: the cases a length-prefixed encoding must get right.
func keyQuery() *Graph {
	return &Graph{
		Nodes: []Node{{ID: "v1", Type: "Automobile"}, {ID: "v2", Name: "Germany", Type: "Country"}, {ID: "né", Name: "a:b"}},
		Edges: []Edge{{From: "v1", To: "v2", Predicate: "assembly"}, {From: "v1", To: "né", Predicate: "designer"}},
	}
}

// TestAppendKeyBytes pins the canonical encodings byte for byte: result
// cache keys hash the query form and keyword candidates sort on it, so a
// change to it would silently reorder candidates.
func TestAppendKeyBytes(t *testing.T) {
	const want = "q:3,2;n2:v10:10:Automobilen2:v27:Germany7:Countryn3:né3:a:b0:e2:v12:v28:assemblye2:v13:né8:designer"
	if got := string(keyQuery().AppendKey(nil)); got != want {
		t.Fatalf("AppendKey = %q\nwant        %q", got, want)
	}
	q := keyQuery()
	path := []Node{q.Nodes[1], q.Nodes[0], q.Nodes[2]}
	const wantPath = "p:3;n7:Germany7:Countryn0:10:Automobilen3:a:b0:e8:assemblye8:designer"
	if got := string(AppendPathKey(nil, path, []string{"assembly", "designer"})); got != wantPath {
		t.Fatalf("AppendPathKey = %q\nwant            %q", got, wantPath)
	}
	path[0].ID = "renamed"
	if got := string(AppendPathKey(nil, path, []string{"assembly", "designer"})); got != wantPath {
		t.Fatalf("a renamed node ID changed the path key: %q", got)
	}
}
