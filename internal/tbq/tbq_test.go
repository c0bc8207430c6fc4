package tbq

import (
	"context"
	"math"
	"testing"
	"time"

	"semkg/internal/astar"
	"semkg/internal/kg"
	"semkg/internal/ta"
)

// stubWeighter mirrors semgraph.Weighter for a single-segment sub-query.
type stubWeighter struct {
	g *kg.Graph
	w []float64 // per predicate
}

func (sw *stubWeighter) Weight(p kg.PredID, _ int) float64 { return sw.w[p] }

func (sw *stubWeighter) NodeMax(u kg.NodeID, _ int) float64 {
	best := 1e-6
	for _, h := range sw.g.Neighbors(u) {
		if w := sw.w[h.Pred]; w > best {
			best = w
		}
	}
	return best
}

// hubGraph builds anchor -> mids -> ends. The mid->end predicate depends
// only on the end, and its weight is strictly decreasing in the end index,
// so every end entity has a distinct best pss (no top-k boundary ties).
func hubGraph(nMids, nEnds int) (*kg.Graph, *stubWeighter, astar.SubQuery) {
	b := kg.NewBuilder(nMids+nEnds+1, nMids*(nEnds+1))
	anchor := b.AddNode("anchor", "A")
	mids := make([]kg.NodeID, nMids)
	for i := range mids {
		mids[i] = b.AddNode("mid"+itoa(i), "M")
	}
	ends := make([]kg.NodeID, nEnds)
	for j := range ends {
		ends[j] = b.AddNode("end"+itoa(j), "E")
	}
	for i, m := range mids {
		b.AddEdge(anchor, m, "r"+itoa(i))
		for j, e := range ends {
			b.AddEdge(m, e, "s"+itoa(j))
		}
	}
	g := b.Build()
	w := make([]float64, g.NumPredicates())
	rIdx, sIdx := 0, 0
	for p := 0; p < g.NumPredicates(); p++ {
		name := g.PredName(kg.PredID(p))
		if name[0] == 'r' {
			w[p] = 0.7 + 0.25*float64(rIdx)/float64(nMids)
			rIdx++
		} else {
			w[p] = 0.4 + 0.55*float64(sIdx)/float64(nEnds)
			sIdx++
		}
	}
	sw := &stubWeighter{g: g, w: w}
	sub := astar.SubQuery{Anchors: []kg.NodeID{anchor}, EndSets: []astar.NodeSet{astar.NewNodeSet(ends, g.NumNodes())}}
	return g, sw, sub
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

func searchOpts() astar.Options { return astar.Options{Tau: 0.3, MaxHops: 3} }

// exactTopK runs the optimal-order searcher to get the reference answer.
func exactTopK(g *kg.Graph, sw *stubWeighter, sub astar.SubQuery, k int) []ta.Final {
	s := astar.NewSearcher(g, sw, sub, searchOpts())
	finals, _ := ta.Assemble([]ta.Stream{s}, k)
	return finals
}

func jaccard(a, b []ta.Final) float64 {
	as := make(map[kg.NodeID]bool)
	bs := make(map[kg.NodeID]bool)
	for _, f := range a {
		as[f.Pivot] = true
	}
	for _, f := range b {
		bs[f.Pivot] = true
	}
	inter := 0
	for p := range as {
		if bs[p] {
			inter++
		}
	}
	union := len(as) + len(bs) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// TestRunConvergesWithTime reproduces Theorem 4: as the bound grows, the
// approximate top-k's Jaccard similarity to the exact top-k does not
// decrease, and with an ample bound the result is exact and exhausted.
func TestRunConvergesWithTime(t *testing.T) {
	g, sw, sub := hubGraph(12, 40)
	const k = 10
	want := exactTopK(g, sw, sub, k)
	if len(want) != k {
		t.Fatalf("reference top-k has %d finals", len(want))
	}

	prev := -1.0
	var lastJ float64
	for _, bound := range []time.Duration{
		2 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond,
		200 * time.Millisecond, 5 * time.Second,
	} {
		s := astar.NewSearcher(g, sw, sub, searchOpts())
		res := Run(context.Background(), []*astar.Searcher{s}, k, Config{
			Bound:      bound,
			Clock:      &StepClock{Step: 100 * time.Microsecond},
			PerMatchTA: time.Microsecond,
		})
		j := jaccard(res.Finals, want)
		if j < prev-1e-9 {
			t.Errorf("bound %v: Jaccard %v decreased below %v", bound, j, prev)
		}
		prev, lastJ = j, j
		if bound >= 5*time.Second && !res.Exhausted {
			t.Errorf("bound %v: expected exhaustion", bound)
		}
	}
	if math.Abs(lastJ-1) > 1e-9 {
		t.Errorf("final Jaccard = %v, want 1 (exact convergence)", lastJ)
	}
}

// TestRunDeterministicWithStepClock: identical configurations produce
// identical approximate answers.
func TestRunDeterministicWithStepClock(t *testing.T) {
	g, sw, sub := hubGraph(10, 30)
	run := func() []ta.Final {
		s := astar.NewSearcher(g, sw, sub, searchOpts())
		res := Run(context.Background(), []*astar.Searcher{s}, 5, Config{
			Bound:      4 * time.Millisecond,
			Clock:      &StepClock{Step: 100 * time.Microsecond},
			PerMatchTA: time.Microsecond,
		})
		return res.Finals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Pivot != b[i].Pivot || a[i].Score != b[i].Score {
			t.Fatalf("runs differ at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRunRespectsWallBound: with the real clock, the search phase stops at
// the alert threshold, so the whole run comes in near the bound (paper
// Fig. 15(b): "TBQ can return the answers within a small variation of the
// actual time bound provided").
func TestRunRespectsWallBound(t *testing.T) {
	g, sw, sub := hubGraph(60, 200)
	const bound = 25 * time.Millisecond
	s := astar.NewSearcher(g, sw, sub, searchOpts())
	start := time.Now()
	res := Run(context.Background(), []*astar.Searcher{s}, 20, Config{Bound: bound})
	elapsed := time.Since(start)
	// Generous slack: the assembly after the 0.8*T alert is small, but CI
	// schedulers are noisy.
	if elapsed > 4*bound {
		t.Errorf("run took %v, far beyond bound %v", elapsed, bound)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

func TestRunZeroBoundAndCancel(t *testing.T) {
	g, sw, sub := hubGraph(8, 20)
	s := astar.NewSearcher(g, sw, sub, searchOpts())
	res := Run(context.Background(), []*astar.Searcher{s}, 5, Config{
		Bound: 0,
		Clock: &StepClock{Step: time.Millisecond},
	})
	if res.Exhausted {
		t.Error("zero bound should stop immediately, not exhaust")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s2 := astar.NewSearcher(g, sw, sub, searchOpts())
	res2 := Run(ctx, []*astar.Searcher{s2}, 5, Config{
		Bound: time.Hour,
		Clock: &StepClock{Step: time.Millisecond},
	})
	if res2.Exhausted {
		t.Error("cancelled run should not report exhaustion")
	}
}

// TestRunMultiSearcher: two sub-queries over the same graph assemble only
// complete pivots.
func TestRunMultiSearcher(t *testing.T) {
	g, sw, sub := hubGraph(10, 25)
	s1 := astar.NewSearcher(g, sw, sub, searchOpts())
	s2 := astar.NewSearcher(g, sw, sub, searchOpts())
	res := Run(context.Background(), []*astar.Searcher{s1, s2}, 5, Config{
		Bound:      10 * time.Second,
		Clock:      &StepClock{Step: 50 * time.Microsecond},
		PerMatchTA: time.Microsecond,
	})
	if !res.Exhausted {
		t.Fatal("ample bound should exhaust")
	}
	if len(res.Finals) != 5 {
		t.Fatalf("finals = %d, want 5", len(res.Finals))
	}
	for _, f := range res.Finals {
		if len(f.Parts) != 2 {
			t.Errorf("final %v missing parts", f.Pivot)
		}
		// Both parts end at the shared pivot.
		if f.Parts[0].End() != f.Pivot || f.Parts[1].End() != f.Pivot {
			t.Errorf("parts do not join at pivot %v", f.Pivot)
		}
	}
	if len(res.Collected) != 2 || res.Collected[0] == 0 || res.Collected[1] == 0 {
		t.Errorf("Collected = %v", res.Collected)
	}
}

// TestSorted: a collected set lists pss descending with End ascending
// among equal pss — the order the assembly consumes — and an empty or nil
// set lists nothing.
func TestSorted(t *testing.T) {
	m := func(end kg.NodeID, pss float64) astar.Match {
		return astar.Match{Nodes: []kg.NodeID{0, end}, PSS: pss}
	}
	got := Sorted(map[kg.NodeID]astar.Match{2: m(2, 0.5), 7: m(7, 0.8), 1: m(1, 0.9), 3: m(3, 0.8)})
	wantEnds := []kg.NodeID{1, 3, 7, 2}
	if len(got) != len(wantEnds) {
		t.Fatalf("sorted %d matches, want %d", len(got), len(wantEnds))
	}
	for i, end := range wantEnds {
		if got[i].End() != end {
			t.Fatalf("position %d: end %d, want %d (got %+v)", i, got[i].End(), end, got)
		}
	}
	if len(Sorted(nil)) != 0 || len(Sorted(map[kg.NodeID]astar.Match{})) != 0 {
		t.Fatal("an empty set sorted to matches")
	}
}

func TestStepClock(t *testing.T) {
	c := &StepClock{Step: time.Second}
	t1 := c.Now()
	t2 := c.Now()
	if got := t2.Sub(t1); got != time.Second {
		t.Errorf("step = %v, want 1s", got)
	}
}
