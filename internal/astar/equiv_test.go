package astar

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"semkg/internal/kg"
	"semkg/internal/oracle"
)

// randomCaseSegs generalizes randomCase to multi-segment sub-queries so the
// oracle comparison also covers segment-closing and suffix-bound paths.
func randomCaseSegs(rng *rand.Rand, segs int) (*kg.Graph, *testWeighter, SubQuery) {
	n := rng.Intn(12) + 6
	preds := []string{"p0", "p1", "p2", "p3"}
	b := kg.NewBuilder(n, n*3)
	ids := make([]kg.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddNode(fmt.Sprintf("n%02d", i), "T")
	}
	m := rng.Intn(3*n) + n
	for i := 0; i < m; i++ {
		b.AddEdge(ids[rng.Intn(n)], ids[rng.Intn(n)], preds[rng.Intn(len(preds))])
	}
	g := b.Build()

	perSeg := make([]map[string]float64, segs)
	for s := range perSeg {
		w := map[string]float64{}
		for _, p := range preds {
			w[p] = 0.05 + 0.95*rng.Float64()
		}
		perSeg[s] = w
	}
	tw := newTestWeighter(g, perSeg)

	sub := SubQuery{Anchors: []kg.NodeID{ids[0]}}
	for s := 0; s < segs; s++ {
		var ends []kg.NodeID
		for i := 1; i < n; i++ {
			if rng.Float64() < 0.3 {
				ends = append(ends, ids[i])
			}
		}
		// A repeated id, possibly the only one: the end-set compile must
		// count it once.
		ends = append(ends, ids[1+rng.Intn(n-1)])
		ends = append(ends, ends[rng.Intn(len(ends))])
		rng.Shuffle(len(ends), func(i, j int) { ends[i], ends[j] = ends[j], ends[i] })
		sub.EndSets = append(sub.EndSets, NewNodeSet(ends, g.NumNodes()))
	}
	return g, tw, sub
}

// oracleSub restates a test case as the oracle's plain inputs.
func oracleSub(tw *testWeighter, sub SubQuery) oracle.Sub {
	o := oracle.Sub{
		Anchors: sub.Anchors,
		Weight:  func(seg int, p kg.PredID) float64 { return tw.Weight(p, seg) },
	}
	for _, set := range sub.EndSets {
		o.Ends = append(o.Ends, set.Members())
	}
	return o
}

// checkMatch fails unless m is what it claims: its edges join its
// consecutive nodes, the oracle accepts the path as a match of the
// sub-query and re-derives the reported pss from it, and SegEnds mark
// exactly the first end-set node of every segment.
func checkMatch(t *testing.T, where string, g *kg.Graph, o oracle.Sub, m Match) {
	t.Helper()
	preds := make([]kg.PredID, len(m.Edges))
	for i, id := range m.Edges {
		e := g.EdgeAt(id)
		a, b := m.Nodes[i], m.Nodes[i+1]
		if !(e.Src == a && e.Dst == b) && !(e.Src == b && e.Dst == a) {
			t.Fatalf("%s: edge %d of %+v does not join its path nodes", where, i, m)
		}
		preds[i] = e.Pred
	}
	pss, err := o.PSS(g, m.Nodes, preds)
	if err != nil {
		t.Fatalf("%s: %+v is not a match: %v", where, m, err)
	}
	if math.Abs(pss-m.PSS) > oracle.Epsilon {
		t.Fatalf("%s: reported pss %v, the path gives %v", where, m.PSS, pss)
	}
	var segEnds []int
	for i := 1; i < len(m.Nodes); i++ {
		if seg := len(segEnds); slices.Contains(o.Ends[seg], m.Nodes[i]) {
			segEnds = append(segEnds, i)
		}
	}
	if !slices.Equal(m.SegEnds, segEnds) {
		t.Fatalf("%s: SegEnds %v, the path closes its segments at %v", where, m.SegEnds, segEnds)
	}
}

// checkAgainstOracle judges one drained match sequence: every match real
// (checkMatch) and at most one per end entity; in sorted mode, pss never
// increasing. exact demands the oracle's set — every end entity the
// exhaustive walk reaches, at its best pss; otherwise (visited-set
// pruning) the sequence must only never beat or invent one.
func checkAgainstOracle(t *testing.T, where string, g *kg.Graph, o oracle.Sub, opt Options, got []Match, sorted, exact bool) {
	t.Helper()
	want := o.Matches(g, opt.Tau, opt.MaxHops)
	best := make(map[kg.NodeID]float64)
	for i, m := range got {
		checkMatch(t, where, g, o, m)
		if sorted && i > 0 && m.PSS > got[i-1].PSS {
			t.Fatalf("%s: pss %v emitted after %v", where, m.PSS, got[i-1].PSS)
		}
		old, dup := best[m.End()]
		if dup && sorted {
			t.Fatalf("%s: entity %d emitted twice", where, m.End())
		}
		best[m.End()] = math.Max(old, m.PSS)
		if w, ok := want[m.End()]; !ok || m.PSS > w.PSS+oracle.Epsilon {
			t.Fatalf("%s: entity %d at pss %v; the oracle's best for it is %v (reached: %v)", where, m.End(), m.PSS, w.PSS, ok)
		}
	}
	if !exact {
		return
	}
	for u, w := range want {
		if pss, ok := best[u]; !ok || math.Abs(pss-w.PSS) > oracle.Epsilon {
			t.Fatalf("%s: entity %d best pss %v (found: %v), the oracle says %v", where, u, pss, ok, w.PSS)
		}
	}
}

func drainNext(next func() (Match, bool)) []Match {
	var out []Match
	for {
		m, ok := next()
		if !ok {
			return out
		}
		out = append(out, m)
	}
}

// TestSequenceMatchesOracleOnSegments: on randomized worlds with one to
// three query edges, across the option matrix, the searcher's sequence is
// sorted, one match per entity, every match real, and — unless
// visited-set pruning is on — exactly the oracle's best-per-entity set
// (Theorem 2 on multi-segment sub-queries).
func TestSequenceMatchesOracleOnSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 200; trial++ {
		g, tw, sub := randomCaseSegs(rng, 1+rng.Intn(3))
		o := oracleSub(tw, sub)
		for _, opt := range []Options{
			{Tau: 0.3, MaxHops: 4},
			{Tau: 0.3, MaxHops: 4, PruneVisited: true},
			{Tau: 0.3, MaxHops: 4, NoHeuristic: true},
			{Tau: 0.6, MaxHops: 3},
		} {
			where := fmt.Sprintf("trial %d opts %+v", trial, opt)
			got := drainNext(NewSearcher(g, tw, sub, opt).Next)
			checkAgainstOracle(t, where, g, o, opt, got, true, !opt.PruneVisited)
		}
	}
}

// TestEagerRunMatchesOracleOnSegments: the time-bounded eager mode, run
// to exhaustion, discovers — in whatever order — only real matches, and
// its best per entity is the oracle's set (Lemma 7's premise).
func TestEagerRunMatchesOracleOnSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for trial := 0; trial < 150; trial++ {
		g, tw, sub := randomCaseSegs(rng, 1+rng.Intn(2))
		opt := Options{Tau: 0.3, MaxHops: 4}
		var got []Match
		if !NewSearcher(g, tw, sub, opt).RunEager(nil, func(m Match) bool { got = append(got, m); return true }) {
			t.Fatalf("trial %d: eager run should exhaust", trial)
		}
		checkAgainstOracle(t, fmt.Sprintf("trial %d", trial), g, oracleSub(tw, sub), opt, got, false, true)
	}
}

// TestRestrictYieldsWantedSubsequence: a searcher restricted after a
// random number of reads, whose want rejects a growing set of end nodes,
// yields exactly the unrestricted sequence filtered by want at read time
// — same paths, pss and order — and expands the same partial states.
func TestRestrictYieldsWantedSubsequence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	filtered := 0
	for trial := 0; trial < 300; trial++ {
		g, tw, sub := randomCaseSegs(rng, 1+rng.Intn(3))
		opt := Options{Tau: 0.3, MaxHops: 4}
		full := NewSearcher(g, tw, sub, opt)
		all := drainNext(full.Next)

		banned := make(map[kg.NodeID]bool)
		sr := NewSearcher(g, tw, sub, opt)
		restrictAt := rng.Intn(4)
		pos := 0
		for read := 0; ; read++ {
			if read == restrictAt {
				sr.Restrict(func(u kg.NodeID) bool { return !banned[u] })
			}
			if rng.Intn(3) == 0 {
				banned[kg.NodeID(rng.Intn(g.NumNodes()))] = true
			}
			if read >= restrictAt {
				for pos < len(all) && banned[all[pos].End()] {
					pos++
					filtered++
				}
			}
			got, ok := sr.Next()
			if !ok {
				if pos != len(all) {
					t.Fatalf("trial %d: restricted search ended at read %d, %d wanted matches left", trial, read, len(all)-pos)
				}
				break
			}
			if pos == len(all) || !reflect.DeepEqual(got, all[pos]) {
				t.Fatalf("trial %d read %d: restricted search yielded %+v, want the unrestricted match %d", trial, read, got, pos)
			}
			pos++
		}
		if a, b := full.Stats(), sr.Stats(); a.Popped != b.Popped || a.Pruned != b.Pruned || b.Pushed > a.Pushed {
			t.Fatalf("trial %d: restricted stats %+v, unrestricted %+v", trial, b, a)
		}
	}
	if filtered == 0 {
		t.Fatal("weak inputs: want never rejected a match")
	}
}
