package semgraph_test

import (
	"fmt"
	"runtime"
	"testing"

	"semkg/internal/astar"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/semgraph"
)

// paddedWorld is a small automobile world — cars assembled in or designed
// from Germany, one or two hops away — whose nodes are spread evenly
// through pad isolated padding nodes, so their ids lie far apart in a
// graph of about pad nodes. The returned sub-query searches from Germany
// for the cars along an "assembly" edge; rows are its weight row.
func paddedWorld(tb testing.TB, pad int) (*kg.Graph, [][]float64, astar.SubQuery) {
	tb.Helper()
	type node struct{ name, typ string }
	nodes := []node{
		{"Germany", "Country"}, {"France", "Country"},
		{"Audi", "Automobile"}, {"BMW", "Automobile"}, {"Opel", "Automobile"},
		{"Renault", "Automobile"}, {"Porsche", "Automobile"},
		{"Peter", "Person"}, {"Anna", "Person"}, {"Jean", "Person"},
		{"Munich", "City"}, {"German", "Language"},
	}
	b := kg.NewBuilder(pad+len(nodes), 32)
	id := map[string]kg.NodeID{}
	per := pad / len(nodes)
	for i, n := range nodes {
		for j := 0; j < per; j++ {
			b.AddNode(fmt.Sprintf("pad%d", i*per+j), "")
		}
		id[n.name] = b.AddNode(n.name, n.typ)
	}
	for _, e := range [][3]string{
		{"Audi", "assembly", "Germany"}, {"BMW", "assembly", "Munich"},
		{"Munich", "country", "Germany"}, {"Opel", "product", "Germany"},
		{"Porsche", "designer", "Peter"}, {"Peter", "nationality", "Germany"},
		{"Renault", "assembly", "France"}, {"Anna", "nationality", "Germany"},
		{"Jean", "nationality", "France"}, {"Germany", "language", "German"},
		{"Audi", "designer", "Anna"}, {"Porsche", "assembly", "Germany"},
	} {
		b.AddEdge(id[e[0]], id[e[2]], e[1])
	}
	g := b.Build()

	vecs := map[string]embed.Vector{
		"assembly":    {1, 0.1, 0},
		"product":     {0.99, 0.05, 0.02},
		"country":     {0.8, 0.3, 0.1},
		"designer":    {0.6, 0.8, 0},
		"nationality": {0.7, 0.5, 0.2},
		"language":    {-0.2, 0.1, 0.97},
	}
	names := g.Predicates()
	ordered := make([]embed.Vector, len(names))
	for i, n := range names {
		ordered[i] = vecs[n]
	}
	sp, err := embed.NewSpace(names, ordered)
	if err != nil {
		tb.Fatal(err)
	}
	cache, err := semgraph.NewRowCache(g, sp)
	if err != nil {
		tb.Fatal(err)
	}
	rows, err := cache.Rows([]string{"assembly"})
	if err != nil {
		tb.Fatal(err)
	}
	cars := []kg.NodeID{id["Audi"], id["BMW"], id["Opel"], id["Renault"], id["Porsche"]}
	sub := astar.SubQuery{
		Anchors: []kg.NodeID{id["Germany"]},
		EndSets: []astar.NodeSet{astar.NewNodeSet(cars, g.NumNodes())},
	}
	return g, rows, sub
}

// drainPadded builds the weighter and searcher of one sub-search over the
// padded world and drains it, returning the number of matches.
func drainPadded(tb testing.TB, g *kg.Graph, rows [][]float64, sub astar.SubQuery) int {
	w, err := semgraph.NewWeighterFromRows(g, rows)
	if err != nil {
		tb.Fatal(err)
	}
	s := astar.NewSearcher(g, w, sub, astar.Options{Tau: 0.5, MaxHops: 3})
	n := 0
	for _, ok := s.Next(); ok; _, ok = s.Next() {
		n++
	}
	return n
}

// searchBytes is the fewest bytes one drainPadded allocated over a few
// runs; the minimum discards allocations of anything else in the process.
func searchBytes(t *testing.T, g *kg.Graph, rows [][]float64, sub astar.SubQuery) (uint64, int) {
	var least uint64
	var matches int
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		matches = drainPadded(t, g, rows, sub)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	return least, matches
}

// TestNodeMaxAllocatesNothing: m(u) is computed, not cached, so reading
// it for nodes 4096 ids apart — each on a page of its own, had the
// weighter paged a per-node cache — allocates nothing, even on a weighter
// that never served a call before.
func TestNodeMaxAllocatesNothing(t *testing.T) {
	g, rows, _ := paddedWorld(t, 12*4096)
	var us []kg.NodeID
	for _, name := range []string{"Germany", "Audi", "BMW", "Porsche", "Peter", "Munich", "German"} {
		u := g.NodeByName(name)
		if len(us) > 0 && u-us[len(us)-1] < 4096 {
			t.Fatalf("%s at id %d is within 4096 ids of the previous node %d", name, u, us[len(us)-1])
		}
		us = append(us, u)
	}
	const runs = 10
	ws := make([]*semgraph.Weighter, runs+1) // AllocsPerRun adds a warm-up run
	for i := range ws {
		w, err := semgraph.NewWeighterFromRows(g, rows)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	var sum float64
	allocs := testing.AllocsPerRun(runs, func() {
		w := ws[0]
		ws = ws[1:]
		for _, u := range us {
			sum += w.NodeMax(u, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("NodeMax over %d nodes allocates %v times per fresh weighter, want 0", len(us), allocs)
	}
	if sum <= 0 {
		t.Fatalf("NodeMax sum %v, want > 0", sum)
	}
}

// TestSearchMemoryIndependentOfGraphSize: one sub-search — weighter,
// searcher and a full drain — allocates what its own states need, not
// what the graph's size implies. The same query over the same small world
// allocates within 4 KB whether or not its nodes sit among a million
// isolated padding nodes; a per-search table indexed by node id, or one
// page of it per node visited, shows here.
func TestSearchMemoryIndependentOfGraphSize(t *testing.T) {
	g, rows, sub := paddedWorld(t, 0)
	small, want := searchBytes(t, g, rows, sub)
	if want < 3 {
		t.Fatalf("the small world yields %d matches; the check needs a real search", want)
	}
	g, rows, sub = paddedWorld(t, 1<<20)
	big, got := searchBytes(t, g, rows, sub)
	if got != want {
		t.Fatalf("padded world yields %d matches, the small world %d", got, want)
	}
	if big > small+4096 {
		t.Fatalf("search among %d nodes allocates %d B, on the small world %d B: more than 4 KB apart",
			g.NumNodes(), big, small)
	}
	t.Logf("%d matches; %d B on the small world, %d B among %d nodes", got, small, big, g.NumNodes())
}

// BenchmarkSearchPaddedGraph drains the padded world's sub-search at 16k
// and 1M padding nodes. B/op must stay flat across the two sizes: a
// sub-search's memory follows the states it pushes, not the graph.
func BenchmarkSearchPaddedGraph(b *testing.B) {
	for _, pad := range []int{1 << 14, 1 << 20} {
		g, rows, sub := paddedWorld(b, pad)
		b.Run(fmt.Sprintf("pad=%d", pad), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				drainPadded(b, g, rows, sub)
			}
		})
	}
}
