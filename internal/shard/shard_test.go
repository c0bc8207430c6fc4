package shard

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"semkg/internal/kg"
)

// randomGraph builds a deterministic pseudo-random typed multigraph.
func randomGraph(t *testing.T, seed int64, nodes, edges int) *kg.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := kg.NewBuilder(nodes, edges)
	types := []string{"A", "B", "C", ""}
	preds := []string{"p", "q", "r", "s"}
	names := make([]string, nodes)
	for i := range names {
		names[i] = "n" + string(rune('a'+i%26)) + "_" + itoa(i)
		b.AddNode(names[i], types[rng.Intn(len(types))])
	}
	for i := 0; i < edges; i++ {
		b.AddEdge(kg.NodeID(rng.Intn(nodes)), kg.NodeID(rng.Intn(nodes)), preds[rng.Intn(len(preds))])
	}
	return b.Build()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf []byte
	for i > 0 {
		buf = append([]byte{byte('0' + i%10)}, buf...)
		i /= 10
	}
	return string(buf)
}

func TestPartitionOwnershipPartitions(t *testing.T) {
	g := randomGraph(t, 7, 80, 200)
	for _, n := range []int{1, 2, 3, 5} {
		set, err := Partition(g, Options{Shards: n, Halo: 2})
		if err != nil {
			t.Fatal(err)
		}
		ownedTotal := 0
		seen := make(map[kg.NodeID]int)
		for i := 0; i < set.Len(); i++ {
			sh := set.Shard(i)
			ownedTotal += sh.OwnedCount()
			for local := 0; local < sh.Graph.NumNodes(); local++ {
				if sh.Owned(kg.NodeID(local)) {
					seen[sh.GlobalNode(kg.NodeID(local))]++
				}
			}
		}
		if ownedTotal != g.NumNodes() {
			t.Fatalf("shards=%d: owned total %d, want %d", n, ownedTotal, g.NumNodes())
		}
		for u, c := range seen {
			if c != 1 {
				t.Fatalf("shards=%d: node %d owned by %d shards", n, u, c)
			}
			if set.Owner(u) < 0 || set.Owner(u) >= n {
				t.Fatalf("owner out of range for %d", u)
			}
		}
		if len(seen) != g.NumNodes() {
			t.Fatalf("shards=%d: %d distinct owned nodes, want %d", n, len(seen), g.NumNodes())
		}
	}
}

// TestPartitionHaloCover is the containment invariant the sharded engine
// relies on: every node within Halo (undirected) hops of an owned node is
// in the shard graph, and every base edge between shard members is too.
func TestPartitionHaloCover(t *testing.T) {
	g := randomGraph(t, 11, 60, 150)
	const halo = 3
	set, err := Partition(g, Options{Shards: 3, Halo: halo})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < set.Len(); i++ {
		sh := set.Shard(i)
		members := make(map[kg.NodeID]bool)
		for l := 0; l < sh.Graph.NumNodes(); l++ {
			members[sh.GlobalNode(kg.NodeID(l))] = true
		}
		// BFS from owned nodes in the base graph.
		dist := make(map[kg.NodeID]int)
		var frontier []kg.NodeID
		for u := 0; u < g.NumNodes(); u++ {
			if set.Owner(kg.NodeID(u)) == i {
				dist[kg.NodeID(u)] = 0
				frontier = append(frontier, kg.NodeID(u))
			}
		}
		for d := 0; d < halo; d++ {
			var next []kg.NodeID
			for _, u := range frontier {
				for _, h := range g.Neighbors(u) {
					if _, ok := dist[h.Neighbor]; !ok {
						dist[h.Neighbor] = d + 1
						next = append(next, h.Neighbor)
					}
				}
			}
			frontier = next
		}
		for u := range dist {
			if !members[u] {
				t.Fatalf("shard %d: node %d at distance %d missing (halo %d)", i, u, dist[u], halo)
			}
		}
		// Induced edges present, facts identical.
		wantEdges := 0
		for e := 0; e < g.NumEdges(); e++ {
			edge := g.EdgeAt(kg.EdgeID(e))
			if members[edge.Src] && members[edge.Dst] {
				wantEdges++
			}
		}
		if sh.Graph.NumEdges() != wantEdges {
			t.Fatalf("shard %d: %d edges, want %d induced", i, sh.Graph.NumEdges(), wantEdges)
		}
		checkMappings(t, g, sh)
	}
}

func TestPartitionSingleShardIsWholeGraph(t *testing.T) {
	g := randomGraph(t, 3, 40, 90)
	set, err := Partition(g, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh := set.Shard(0)
	if sh.Graph.NumNodes() != g.NumNodes() || sh.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("single shard %d/%d, want %d/%d",
			sh.Graph.NumNodes(), sh.Graph.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if sh.OwnedCount() != g.NumNodes() {
		t.Fatalf("single shard owns %d of %d", sh.OwnedCount(), g.NumNodes())
	}
	for u := 0; u < g.NumNodes(); u++ {
		if sh.GlobalNode(kg.NodeID(u)) != kg.NodeID(u) || g.NodeName(kg.NodeID(u)) != sh.Graph.NodeName(kg.NodeID(u)) {
			t.Fatalf("identity mapping broken at %d", u)
		}
	}
}

// TestPartitionMoreShardsThanNodes exercises the empty-shard edge case:
// shards that own nothing have empty graphs and stay usable.
func TestPartitionMoreShardsThanNodes(t *testing.T) {
	b := kg.NewBuilder(4, 4)
	a := b.AddNode("a", "T")
	c := b.AddNode("b", "T")
	b.AddEdge(a, c, "p")
	g := b.Build()
	set, err := Partition(g, Options{Shards: 5, Halo: 2})
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for i := 0; i < set.Len(); i++ {
		sh := set.Shard(i)
		if sh.Graph.NumNodes() == 0 {
			empty++
			if sh.OwnedCount() != 0 || sh.Graph.NumEdges() != 0 {
				t.Fatalf("empty shard %d has owned=%d edges=%d", i, sh.OwnedCount(), sh.Graph.NumEdges())
			}
		}
	}
	if empty != 3 {
		t.Fatalf("empty shards = %d, want 3", empty)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := randomGraph(t, 19, 70, 180)
	a, err := Partition(g, Options{Shards: 4, Halo: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, Options{Shards: 4, Halo: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		var ba, bb bytes.Buffer
		if err := kg.WriteSnapshot(&ba, a.Shard(i).Graph); err != nil {
			t.Fatal(err)
		}
		if err := kg.WriteSnapshot(&bb, b.Shard(i).Graph); err != nil {
			t.Fatal(err)
		}
		sa, sb := a.Shard(i), b.Shard(i)
		if !bytes.Equal(ba.Bytes(), bb.Bytes()) || !slices.Equal(sa.nodeGlobal, sb.nodeGlobal) ||
			!slices.Equal(sa.edgeGlobal, sb.edgeGlobal) || !slices.Equal(sa.predGlobal, sb.predGlobal) {
			t.Fatalf("shard %d: partitions of the same graph differ", i)
		}
	}
}

// checkMappings asserts that sh's id mappings name the same entities,
// facts and predicates in base as in the shard graph.
func checkMappings(t *testing.T, base *kg.Graph, sh *Shard) {
	t.Helper()
	g := sh.Graph
	if len(sh.nodeGlobal) != g.NumNodes() || len(sh.edgeGlobal) != g.NumEdges() || len(sh.predGlobal) != g.NumPredicates() {
		t.Fatalf("shard %d: mapping sizes disagree with the shard graph", sh.Index)
	}
	for local, global := range sh.nodeGlobal {
		if base.NodeName(global) != g.NodeName(kg.NodeID(local)) {
			t.Fatalf("shard %d: node %d maps to base node %d with a different name", sh.Index, local, global)
		}
	}
	for local, global := range sh.edgeGlobal {
		be, le := base.EdgeAt(global), g.EdgeAt(kg.EdgeID(local))
		if base.NodeName(be.Src) != g.NodeName(le.Src) || base.NodeName(be.Dst) != g.NodeName(le.Dst) ||
			be.Pred != sh.predGlobal[le.Pred] {
			t.Fatalf("shard %d: edge %d maps to base edge %d stating a different fact", sh.Index, local, global)
		}
	}
	for local, global := range sh.predGlobal {
		if base.PredName(global) != g.PredName(kg.PredID(local)) {
			t.Fatalf("shard %d: predicate %d maps to base predicate %d with a different name", sh.Index, local, global)
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	g := randomGraph(t, 41, 10, 20)
	if _, err := Partition(nil, Options{Shards: 2}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Partition(g, Options{Shards: 0}); err == nil {
		t.Fatal("0 shards accepted")
	}
	set, err := Partition(g, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if set.Halo() != DefaultHalo {
		t.Fatalf("default halo = %d, want %d", set.Halo(), DefaultHalo)
	}
}
