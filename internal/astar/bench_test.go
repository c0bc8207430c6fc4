package astar

import (
	"fmt"
	"math/rand"
	"testing"

	"semkg/internal/kg"
)

// benchWorld is a random n-node graph of average degree 8 over four
// predicates, searched from node 0 towards phi distinct random end nodes.
func benchWorld(n, phi int) (*kg.Graph, *testWeighter, SubQuery) {
	rng := rand.New(rand.NewSource(int64(n + phi)))
	preds := []string{"p0", "p1", "p2", "p3"}
	b := kg.NewBuilder(n, 4*n)
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("n%d", i), "T")
	}
	for i := 0; i < 4*n; i++ {
		b.AddEdge(kg.NodeID(rng.Intn(n)), kg.NodeID(rng.Intn(n)), preds[rng.Intn(len(preds))])
	}
	g := b.Build()
	w := map[string]float64{}
	for _, p := range preds {
		w[p] = 0.5 + 0.5*rng.Float64()
	}
	ends := make([]kg.NodeID, phi)
	for i, u := range rng.Perm(n - 1)[:phi] {
		ends[i] = kg.NodeID(u + 1)
	}
	sub := SubQuery{Anchors: []kg.NodeID{0}, EndSets: []NodeSet{NewNodeSet(ends, n)}}
	return g, newTestWeighter(g, []map[string]float64{w}), sub
}

// BenchmarkNewSearcher measures searcher construction over a plan's
// compiled end set, on both sides of the sorted-slice/bitset crossover.
func BenchmarkNewSearcher(b *testing.B) {
	for _, phi := range []int{16, 4096} {
		g, tw, sub := benchWorld(1<<14, phi)
		b.Run(fmt.Sprintf("phi=%d", phi), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewSearcher(g, tw, sub, Options{Tau: 0.5, MaxHops: 3})
			}
		})
	}
}

// TestNextAllocsPerMatch pins what a full drain allocates: each match's
// Nodes, Edges and SegEnds, plus the amortized growth of the arena,
// frontier and end-node dedup map — at most 4 allocations per match.
func TestNextAllocsPerMatch(t *testing.T) {
	g, tw, sub := benchWorld(1<<14, 4096)
	const runs = 5
	searchers := make([]*Searcher, runs+1) // AllocsPerRun adds a warm-up run
	for i := range searchers {
		searchers[i] = NewSearcher(g, tw, sub, Options{Tau: 0.5, MaxHops: 3})
	}
	matches := 0
	allocs := testing.AllocsPerRun(runs, func() {
		s := searchers[0]
		searchers = searchers[1:]
		for matches = 0; ; matches++ {
			if _, ok := s.Next(); !ok {
				break
			}
		}
	})
	if matches < 50 {
		t.Fatalf("drain emitted %d matches; the pin needs a real workload", matches)
	}
	per := allocs / float64(matches)
	if per > 4 {
		t.Fatalf("%.2f allocations per match (%v over %d matches), want ≤ 4", per, allocs, matches)
	}
	t.Logf("%.2f allocations per match (%v over %d matches)", per, allocs, matches)
}
