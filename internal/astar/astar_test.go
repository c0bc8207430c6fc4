package astar

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"semkg/internal/kg"
)

// testWeighter assigns one weight per predicate per segment and computes
// the m(u) suffix bound exactly, mirroring semgraph.Weighter's contract.
type testWeighter struct {
	g    *kg.Graph
	w    [][]float64 // [seg][pred]
	segs int
}

func newTestWeighter(g *kg.Graph, perSeg []map[string]float64) *testWeighter {
	tw := &testWeighter{g: g, segs: len(perSeg)}
	tw.w = make([][]float64, len(perSeg))
	for s, m := range perSeg {
		row := make([]float64, g.NumPredicates())
		for p := range row {
			if v, ok := m[g.PredName(kg.PredID(p))]; ok {
				row[p] = v
			} else {
				row[p] = 1e-6
			}
		}
		tw.w[s] = row
	}
	return tw
}

func (tw *testWeighter) Weight(p kg.PredID, seg int) float64 { return tw.w[seg][p] }

func (tw *testWeighter) NodeMax(u kg.NodeID, seg int) float64 {
	best := 1e-6
	for _, h := range tw.g.Neighbors(u) {
		for s := seg; s < tw.segs; s++ {
			if w := tw.w[s][h.Pred]; w > best {
				best = w
			}
		}
	}
	return best
}

// lineGraph builds: a --p1--> b --p2--> c --p3--> d and a --q--> d, so
// matches from a to d are the direct 1-hop q path and the 3-hop p path.
func lineGraph() *kg.Graph {
	b := kg.NewBuilder(4, 4)
	na := b.AddNode("a", "T")
	nb := b.AddNode("b", "T")
	nc := b.AddNode("c", "T")
	nd := b.AddNode("d", "End")
	b.AddEdge(na, nb, "p1")
	b.AddEdge(nb, nc, "p2")
	b.AddEdge(nc, nd, "p3")
	b.AddEdge(na, nd, "q")
	return b.Build()
}

func endSet(g *kg.Graph, names ...string) NodeSet {
	ids := make([]kg.NodeID, len(names))
	for i, n := range names {
		ids[i] = g.NodeByName(n)
	}
	return NewNodeSet(ids, g.NumNodes())
}

// TestNodeSet: on random id lists with repeats — empty, and on both sides
// of the n/256 crossover — both representations answer membership like a
// map on every node, Members lists each member once in ascending order,
// and the input is left as it was.
func TestNodeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 4096 // the crossover is at 16 members
	var zero NodeSet
	if zero.has(0) || len(zero.Members()) != 0 {
		t.Fatal("the zero NodeSet is not empty")
	}
	sawSparse, sawDense := false, false
	for _, size := range []int{0, 1, 2, 15, 16, 17, 20, 40, 500, n} {
		for trial := 0; trial < 4; trial++ {
			ids := make([]kg.NodeID, size)
			want := make(map[kg.NodeID]bool)
			for i := range ids {
				if i > 0 && rng.Intn(4) == 0 {
					ids[i] = ids[rng.Intn(i)] // a repeat
				} else {
					ids[i] = kg.NodeID(rng.Intn(n))
				}
				want[ids[i]] = true
			}
			in := slices.Clone(ids)
			s := NewNodeSet(ids, n)
			where := fmt.Sprintf("size %d trial %d", size, trial)
			if !slices.Equal(ids, in) {
				t.Fatalf("%s: NewNodeSet modified its input", where)
			}
			dense := s.bits != nil
			if dense != (len(want) > n/256) {
				t.Fatalf("%s: %d members, bitset %v", where, len(want), dense)
			}
			sawSparse, sawDense = sawSparse || !dense, sawDense || dense
			for u := kg.NodeID(0); u < n; u++ {
				if s.has(u) != want[u] {
					t.Fatalf("%s: has(%d) = %v, want %v (bitset %v)", where, u, s.has(u), want[u], dense)
				}
			}
			m := s.Members()
			if len(m) != len(want) {
				t.Fatalf("%s: %d members listed, want %d", where, len(m), len(want))
			}
			for i, u := range m {
				if !want[u] || (i > 0 && m[i-1] >= u) {
					t.Fatalf("%s: Members %v not the ascending, deduplicated set", where, m)
				}
			}
		}
	}
	if !sawSparse || !sawDense {
		t.Fatalf("covered sparse %v, dense %v; want both", sawSparse, sawDense)
	}
}

func TestSearcherSingleBest(t *testing.T) {
	g := lineGraph()
	// q is semantically best: pss(q)=0.9; 3-hop path pss=(0.9*0.9*0.9)^(1/3)=0.9.
	tw := newTestWeighter(g, []map[string]float64{{"p1": 0.8, "p2": 0.8, "p3": 0.8, "q": 0.9}})
	sub := SubQuery{
		Anchors: []kg.NodeID{g.NodeByName("a")},
		EndSets: []NodeSet{endSet(g, "d")},
	}
	s := NewSearcher(g, tw, sub, Options{Tau: 0.1, MaxHops: 4})
	m, ok := s.Next()
	if !ok {
		t.Fatal("no match found")
	}
	if m.End() != g.NodeByName("d") {
		t.Errorf("match ends at %s", g.NodeName(m.End()))
	}
	if math.Abs(m.PSS-0.9) > 1e-12 {
		t.Errorf("pss = %v, want 0.9 (direct q edge)", m.PSS)
	}
	if m.Len() != 1 {
		t.Errorf("best match should be the 1-hop q path, got %d hops", m.Len())
	}
	// Only one answer entity (d); the second call must find nothing.
	if _, ok := s.Next(); ok {
		t.Error("second match should not exist (single end entity)")
	}
}

func TestSearcherGeometricMeanPrefersShortStrong(t *testing.T) {
	g := lineGraph()
	// 3-hop path has weights 0.95 each: pss = 0.95. q edge only 0.6.
	tw := newTestWeighter(g, []map[string]float64{{"p1": 0.95, "p2": 0.95, "p3": 0.95, "q": 0.6}})
	sub := SubQuery{
		Anchors: []kg.NodeID{g.NodeByName("a")},
		EndSets: []NodeSet{endSet(g, "d")},
	}
	s := NewSearcher(g, tw, sub, Options{Tau: 0.1, MaxHops: 4})
	m, ok := s.Next()
	if !ok {
		t.Fatal("no match")
	}
	if m.Len() != 3 || math.Abs(m.PSS-0.95) > 1e-9 {
		t.Errorf("want 3-hop pss 0.95 match, got %d hops pss %v", m.Len(), m.PSS)
	}
}

func TestSearcherTauPrunes(t *testing.T) {
	g := lineGraph()
	tw := newTestWeighter(g, []map[string]float64{{"p1": 0.4, "p2": 0.4, "p3": 0.4, "q": 0.4}})
	sub := SubQuery{
		Anchors: []kg.NodeID{g.NodeByName("a")},
		EndSets: []NodeSet{endSet(g, "d")},
	}
	s := NewSearcher(g, tw, sub, Options{Tau: 0.8, MaxHops: 4})
	if _, ok := s.Next(); ok {
		t.Error("all matches below τ should be pruned")
	}
	if s.Stats().Pruned == 0 {
		t.Error("pruning counter should be non-zero")
	}
}

func TestSearcherMaxHops(t *testing.T) {
	g := lineGraph()
	tw := newTestWeighter(g, []map[string]float64{{"p1": 0.9, "p2": 0.9, "p3": 0.9}})
	sub := SubQuery{
		Anchors: []kg.NodeID{g.NodeByName("a")},
		EndSets: []NodeSet{endSet(g, "d")},
	}
	// q weight ~0 so the only viable match is 3 hops; MaxHops=2 forbids it.
	s := NewSearcher(g, tw, sub, Options{Tau: 0.1, MaxHops: 2})
	if m, ok := s.Next(); ok {
		t.Errorf("3-hop match should be ignored under n̂=2, got %v", m)
	}
}

func TestSearcherNoAnchors(t *testing.T) {
	g := lineGraph()
	tw := newTestWeighter(g, []map[string]float64{{"q": 0.9}})
	s := NewSearcher(g, tw, SubQuery{EndSets: []NodeSet{endSet(g, "d")}}, Options{})
	if _, ok := s.Next(); ok {
		t.Error("searcher without anchors should yield nothing")
	}
}

// TestSearcherTwoSegments: a 2-edge sub-query a -e0-> (B) -e1-> (D) where
// intermediate nodes must be of the B set.
func TestSearcherTwoSegments(t *testing.T) {
	b := kg.NewBuilder(8, 8)
	na := b.AddNode("a", "A")
	nb1 := b.AddNode("b1", "B")
	nb2 := b.AddNode("b2", "B")
	nd := b.AddNode("d", "D")
	nx := b.AddNode("x", "X")
	b.AddEdge(na, nb1, "r")
	b.AddEdge(nb1, nd, "s")
	b.AddEdge(na, nb2, "r")
	b.AddEdge(nb2, nd, "s")
	b.AddEdge(na, nx, "r")
	b.AddEdge(nx, nd, "s")
	g := b.Build()

	tw := newTestWeighter(g, []map[string]float64{
		{"r": 0.9, "s": 0.2},
		{"s": 0.8, "r": 0.2},
	})
	sub := SubQuery{
		Anchors: []kg.NodeID{g.NodeByName("a")},
		EndSets: []NodeSet{
			endSet(g, "b1", "b2"), // intermediate query node matches B nodes
			endSet(g, "d"),
		},
	}
	s := NewSearcher(g, tw, sub, Options{Tau: 0.1, MaxHops: 4})
	m, ok := s.Next()
	if !ok {
		t.Fatal("no match")
	}
	want := math.Sqrt(0.9 * 0.8)
	if math.Abs(m.PSS-want) > 1e-12 {
		t.Errorf("pss = %v, want %v", m.PSS, want)
	}
	if m.Len() != 2 {
		t.Errorf("hops = %d, want 2", m.Len())
	}
	mid := m.Nodes[m.SegEnds[0]]
	if name := g.NodeName(mid); name != "b1" && name != "b2" {
		t.Errorf("intermediate anchor = %s, want b1/b2 (x must not close segment 0)", name)
	}
	// The path through x never forms a match: x is not in φ of the
	// intermediate query node, so segment 0 cannot close there, and x's
	// edges score 0.2/0.8 — any x-passing 2-hop walk would need segment 0
	// to close at x. Verify no emitted match routes through x.
	for {
		m2, ok := s.Next()
		if !ok {
			break
		}
		for _, n := range m2.Nodes[1 : len(m2.Nodes)-1] {
			if g.NodeName(n) == "x" {
				t.Errorf("match routed through x: %v", m2.Nodes)
			}
		}
	}
}

// randomCase generates a random graph + weights and a single-segment
// sub-query for the brute-force comparison.
func randomCase(rng *rand.Rand) (*kg.Graph, *testWeighter, SubQuery) {
	n := rng.Intn(12) + 4
	preds := []string{"p0", "p1", "p2", "p3"}
	b := kg.NewBuilder(n, n*3)
	ids := make([]kg.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddNode("n"+string(rune('A'+i)), "T")
	}
	m := rng.Intn(3*n) + n
	for i := 0; i < m; i++ {
		b.AddEdge(ids[rng.Intn(n)], ids[rng.Intn(n)], preds[rng.Intn(len(preds))])
	}
	g := b.Build()

	w := map[string]float64{}
	for _, p := range preds {
		w[p] = 0.05 + 0.95*rng.Float64()
	}
	tw := newTestWeighter(g, []map[string]float64{w})

	anchors := []kg.NodeID{ids[0]}
	var ends []kg.NodeID
	for i := 1; i < n; i++ {
		if rng.Float64() < 0.3 {
			ends = append(ends, ids[i])
		}
	}
	if len(ends) == 0 {
		ends = append(ends, ids[n-1])
	}
	return g, tw, SubQuery{Anchors: anchors, EndSets: []NodeSet{NewNodeSet(ends, g.NumNodes())}}
}

// TestSearcherMatchesBruteForce is the central correctness check: on random
// graphs, the searcher must (1) emit matches in non-increasing pss order,
// (2) emit at most one match per end entity, (3) emit only real matches
// whose pss their path gives, and (4) emit every entity the oracle's
// exhaustive walk reaches, with its best pss.
func TestSearcherMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		g, tw, sub := randomCase(rng)
		opt := Options{Tau: 0.3, MaxHops: 4}
		got := drainNext(NewSearcher(g, tw, sub, opt).Next)
		checkAgainstOracle(t, fmt.Sprintf("trial %d", trial), g, oracleSub(tw, sub), opt, got, true, true)
	}
}

// TestRunEagerSameSet verifies Lemma 7's premise: the eager (time-bounded)
// mode run to exhaustion discovers exactly the same match set as the
// optimal-order mode (only the output order differs).
func TestRunEagerSameSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		g, tw, sub := randomCase(rng)
		opt := Options{Tau: 0.3, MaxHops: 4}

		s1 := NewSearcher(g, tw, sub, opt)
		optimal := make(map[kg.NodeID]float64)
		for {
			m, ok := s1.Next()
			if !ok {
				break
			}
			optimal[m.End()] = m.PSS
		}

		s2 := NewSearcher(g, tw, sub, opt)
		eager := make(map[kg.NodeID]float64)
		exhausted := s2.RunEager(nil, func(m Match) bool {
			if old, ok := eager[m.End()]; !ok || m.PSS > old {
				eager[m.End()] = m.PSS
			}
			return true
		})
		if !exhausted {
			t.Fatalf("trial %d: eager run should exhaust the space", trial)
		}
		if len(eager) != len(optimal) {
			t.Fatalf("trial %d: eager found %d entities, optimal %d", trial, len(eager), len(optimal))
		}
		for u, pss := range optimal {
			if math.Abs(eager[u]-pss) > 1e-9 {
				t.Fatalf("trial %d: entity %v eager pss %v, optimal %v", trial, u, eager[u], pss)
			}
		}
	}
}

func TestRunEagerStops(t *testing.T) {
	g := lineGraph()
	tw := newTestWeighter(g, []map[string]float64{{"p1": 0.9, "p2": 0.9, "p3": 0.9, "q": 0.9}})
	sub := SubQuery{
		Anchors: []kg.NodeID{g.NodeByName("a")},
		EndSets: []NodeSet{endSet(g, "d")},
	}
	calls := 0
	s := NewSearcher(g, tw, sub, Options{Tau: 0.1, MaxHops: 4})
	exhausted := s.RunEager(func() bool { calls++; return calls > 1 }, func(Match) bool { return true })
	if exhausted {
		t.Error("stopped run must not report exhaustion")
	}

	// emit returning false also stops the run.
	s2 := NewSearcher(g, tw, sub, Options{Tau: 0.1, MaxHops: 4})
	if s2.RunEager(nil, func(Match) bool { return false }) {
		t.Error("emit=false must stop the run before exhaustion")
	}
}

// TestHeuristicPrunes verifies the point of the heuristic: with the m(u)
// factor the searcher expands no more states than the uninformed variant.
func TestHeuristicPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	informedTotal, uninformedTotal := 0, 0
	for trial := 0; trial < 50; trial++ {
		g, tw, sub := randomCase(rng)
		a := NewSearcher(g, tw, sub, Options{Tau: 0.3, MaxHops: 4})
		for {
			if _, ok := a.Next(); !ok {
				break
			}
		}
		b := NewSearcher(g, tw, sub, Options{Tau: 0.3, MaxHops: 4, NoHeuristic: true})
		for {
			if _, ok := b.Next(); !ok {
				break
			}
		}
		informedTotal += a.Stats().Popped
		uninformedTotal += b.Stats().Popped
	}
	if informedTotal > uninformedTotal {
		t.Errorf("informed search expanded more states (%d) than uninformed (%d)",
			informedTotal, uninformedTotal)
	}
}

func TestMatchReconstruction(t *testing.T) {
	g := lineGraph()
	tw := newTestWeighter(g, []map[string]float64{{"p1": 0.95, "p2": 0.95, "p3": 0.95}})
	sub := SubQuery{
		Anchors: []kg.NodeID{g.NodeByName("a")},
		EndSets: []NodeSet{endSet(g, "d")},
	}
	s := NewSearcher(g, tw, sub, Options{Tau: 0.1, MaxHops: 4})
	m, ok := s.Next()
	if !ok {
		t.Fatal("no match")
	}
	wantNodes := []string{"a", "b", "c", "d"}
	if len(m.Nodes) != len(wantNodes) {
		t.Fatalf("nodes = %d, want %d", len(m.Nodes), len(wantNodes))
	}
	for i, n := range wantNodes {
		if g.NodeName(m.Nodes[i]) != n {
			t.Errorf("node[%d] = %s, want %s", i, g.NodeName(m.Nodes[i]), n)
		}
	}
	if len(m.SegEnds) != 1 || m.SegEnds[0] != 3 {
		t.Errorf("SegEnds = %v, want [3]", m.SegEnds)
	}
	for i, e := range m.Edges {
		edge := g.EdgeAt(e)
		a, b := m.Nodes[i], m.Nodes[i+1]
		if !(edge.Src == a && edge.Dst == b) && !(edge.Src == b && edge.Dst == a) {
			t.Errorf("edge %d does not connect consecutive path nodes", i)
		}
	}
}

// TestPruneVisitedSoundSubset: the paper's visited-set pruning may miss
// alternate paths, but everything it emits must still be a valid match with
// pss no better than the true optimum, in non-increasing order, and it must
// expand no more states than exact search.
func TestPruneVisitedSoundSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 150; trial++ {
		g, tw, sub := randomCase(rng)
		opt := Options{Tau: 0.3, MaxHops: 4, PruneVisited: true}
		s := NewSearcher(g, tw, sub, opt)
		checkAgainstOracle(t, fmt.Sprintf("trial %d", trial), g, oracleSub(tw, sub), opt, drainNext(s.Next), true, false)

		exact := NewSearcher(g, tw, sub, Options{Tau: opt.Tau, MaxHops: opt.MaxHops})
		drainNext(exact.Next)
		if s.Stats().Popped > exact.Stats().Popped {
			t.Fatalf("trial %d: pruned search expanded more states (%d) than exact (%d)",
				trial, s.Stats().Popped, exact.Stats().Popped)
		}
	}
}
