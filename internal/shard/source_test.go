package shard

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"semkg/internal/astar"
	"semkg/internal/kg"
	"semkg/internal/semgraph"
)

// randomRows builds one weight row per segment over g's predicates.
func randomRows(g *kg.Graph, segs int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, segs)
	for s := range rows {
		rows[s] = make([]float64, g.NumPredicates())
		for p := range rows[s] {
			rows[s][p] = 0.6 + 0.4*rng.Float64()
		}
	}
	return rows
}

// manyPredGraph is a random graph over enough predicates that some shard
// interns them in an order other than the base graph's, so a projection
// that indexed weight rows by shard predicate id directly would weigh
// edges wrongly.
func manyPredGraph(seed int64, nodes, edges, preds int) *kg.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := kg.NewBuilder(nodes, edges)
	for i := 0; i < nodes; i++ {
		b.AddNode("n"+itoa(i), "T")
	}
	for i := 0; i < edges; i++ {
		b.AddEdge(kg.NodeID(rng.Intn(nodes)), kg.NodeID(rng.Intn(nodes)), "r"+itoa(rng.Intn(preds)))
	}
	return b.Build()
}

func drain(src interface {
	Next() (astar.Match, bool)
}) []astar.Match {
	var out []astar.Match
	for {
		m, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, m)
	}
}

// TestProjectInactive: a shard that provably cannot contribute to a
// sub-query projects it to nil — no anchor replicated, or some end set
// without a replica — so the engine opens no source there, and the merge
// over the remaining shards stays complete.
func TestProjectInactive(t *testing.T) {
	g := randomGraph(t, 47, 60, 50)
	set, err := Partition(g, Options{Shards: 4, Halo: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := randomRows(g, 1, 1)
	var sh *Shard
	present, absent := kg.NoNode, kg.NoNode
	for i := 0; i < set.Len() && absent == kg.NoNode; i++ {
		sh = set.Shard(i)
		present, absent = kg.NoNode, kg.NoNode
		for u := kg.NodeID(0); int(u) < g.NumNodes(); u++ {
			if _, ok := sh.LocalNode(u); ok {
				present = u
			} else {
				absent = u
			}
		}
	}
	if present == kg.NoNode || absent == kg.NoNode {
		t.Fatal("no shard both replicates and misses a node; the world is too dense for this test")
	}
	all := make([]kg.NodeID, g.NumNodes())
	for u := range all {
		all[u] = kg.NodeID(u)
	}

	noAnchor := astar.SubQuery{
		Anchors: []kg.NodeID{absent},
		EndSets: []astar.NodeSet{astar.NewNodeSet(all, g.NumNodes())},
	}
	if p := sh.Project(noAnchor, rows); p != nil {
		t.Fatalf("shard %d: projection with no replicated anchor = %+v, want nil", sh.Index, p)
	}
	noEnd := astar.SubQuery{
		Anchors: []kg.NodeID{present},
		EndSets: []astar.NodeSet{astar.NewNodeSet([]kg.NodeID{absent}, g.NumNodes())},
	}
	if p := sh.Project(noEnd, rows); p != nil {
		t.Fatalf("shard %d: projection with an unreplicated end set = %+v, want nil", sh.Index, p)
	}
}

// TestSourceDrainsInBaseIDs: a local source over a projected blueprint is
// deterministic (drained twice, it yields the same matches) and speaks
// base ids; the shards enumerate disjoint paths, and the best pss each end
// entity reaches over all shards is the whole-graph search's (a searcher
// emits one match per end entity, its best).
func TestSourceDrainsInBaseIDs(t *testing.T) {
	g := manyPredGraph(43, 80, 90, 24)
	set, err := Partition(g, Options{Shards: 3, Halo: 2})
	if err != nil {
		t.Fatal(err)
	}
	relabeled := false
	for i := 0; i < set.Len(); i++ {
		for p, bp := range set.Shard(i).predGlobal {
			relabeled = relabeled || kg.PredID(p) != bp
		}
	}
	if !relabeled {
		t.Fatal("every shard numbers its predicates like the base graph; the test would not see a wrong row index")
	}
	ends := make([]kg.NodeID, 0, g.NumNodes())
	for u := 10; u < g.NumNodes(); u++ {
		ends = append(ends, kg.NodeID(u))
	}
	sub := astar.SubQuery{
		Anchors: []kg.NodeID{0, 1, 2, 3},
		EndSets: []astar.NodeSet{astar.NewNodeSet(ends, g.NumNodes())},
	}
	rows := randomRows(g, 1, 2)
	opts := astar.Options{Tau: 0.5, MaxHops: 2}

	w, err := semgraph.NewWeighterFromRows(g, rows)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[kg.NodeID]float64)
	for _, m := range drain(astar.NewSearcher(g, w, sub, opts)) {
		want[m.End()] = m.PSS
	}
	if len(want) == 0 {
		t.Fatal("whole-graph search found nothing; the test would prove nothing")
	}

	got := make(map[kg.NodeID]float64)
	paths := make(map[string]bool)
	for i := 0; i < set.Len(); i++ {
		sh := set.Shard(i)
		proj := sh.Project(sub, rows)
		if proj == nil {
			continue
		}
		var runs [2][]astar.Match
		for r := range runs {
			src, err := sh.NewSource(proj, opts)
			if err != nil {
				t.Fatal(err)
			}
			runs[r] = drain(src)
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Fatalf("shard %d: two drains of one projection differ", i)
		}
		for _, m := range runs[0] {
			for j, e := range m.Edges {
				edge := g.EdgeAt(e)
				u, v := m.Nodes[j], m.Nodes[j+1]
				if !(edge.Src == u && edge.Dst == v) && !(edge.Src == v && edge.Dst == u) {
					t.Fatalf("shard %d: match %v: base edge %d does not join base nodes %d and %d", i, m.Nodes, e, u, v)
				}
			}
			path := fmt.Sprint(m.Nodes, m.Edges)
			if paths[path] {
				t.Fatalf("shard %d: path %s found by two shards", i, path)
			}
			paths[path] = true
			got[m.End()] = max(got[m.End()], m.PSS)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("shards reach %d end entities, the whole graph %d", len(got), len(want))
	}
	for end, pss := range want {
		if math.Abs(got[end]-pss) > 1e-12 {
			t.Fatalf("end entity %d: best pss over the shards %v, whole graph %v", end, got[end], pss)
		}
	}
}
