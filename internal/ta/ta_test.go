package ta

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"semkg/internal/astar"
	"semkg/internal/kg"
	"semkg/internal/oracle"
)

// entry builds a minimal match ending at pivot with the given pss.
func entry(pivot kg.NodeID, pss float64) astar.Match {
	return astar.Match{Nodes: []kg.NodeID{pivot}, PSS: pss}
}

// list builds a SliceStream from (pivot, pss) pairs, sorting by pss desc.
func list(pairs ...struct {
	p   kg.NodeID
	pss float64
}) *SliceStream {
	ms := make([]astar.Match, len(pairs))
	for i, pr := range pairs {
		ms[i] = entry(pr.p, pr.pss)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].PSS > ms[j].PSS })
	return &SliceStream{Matches: ms}
}

type pair = struct {
	p   kg.NodeID
	pss float64
}

func TestAssembleBasicJoin(t *testing.T) {
	l1 := list(pair{1, 0.9}, pair{2, 0.8}, pair{3, 0.7})
	l2 := list(pair{2, 0.8}, pair{3, 0.75}, pair{1, 0.5})
	got, _ := Assemble([]Stream{l1, l2}, 2)
	if len(got) != 2 {
		t.Fatalf("got %d finals, want 2", len(got))
	}
	// Scores: 1 -> 1.4, 2 -> 1.6, 3 -> 1.45. Top-2 = {2, 3}.
	if got[0].Pivot != 2 || math.Abs(got[0].Score-1.6) > 1e-12 {
		t.Errorf("top final = (%d, %v), want (2, 1.6)", got[0].Pivot, got[0].Score)
	}
	if got[1].Pivot != 3 || math.Abs(got[1].Score-1.45) > 1e-12 {
		t.Errorf("second final = (%d, %v), want (3, 1.45)", got[1].Pivot, got[1].Score)
	}
	if len(got[0].Parts) != 2 {
		t.Errorf("final should keep one part per stream")
	}
	for i, p := range got[0].Parts {
		if p.End() != 2 {
			t.Errorf("part %d ends at %d, want pivot 2", i, p.End())
		}
	}
}

// cutAfter yields its stream's matches until the shared budget of pulls
// is spent, then nothing, recording the cut.
type cutAfter struct {
	Stream
	budget *int
	cut    *bool
}

func (c cutAfter) Next() (astar.Match, bool) {
	if *c.budget == 0 {
		*c.cut = true
		return astar.Match{}, false
	}
	*c.budget--
	return c.Stream.Next()
}

// TestAssemblerExpireCuts: a stream stopped by a deadline cuts the
// assembly instead of retiring the stream — the finals are the complete
// candidates so far at their exact scores, the run does not count as
// exhausted, and ψcur keeps its last values, so U_max still bounds the
// candidates left outside.
func TestAssemblerExpireCuts(t *testing.T) {
	budget, cut := 4, false
	l1 := list(pair{1, 0.9}, pair{2, 0.8}, pair{3, 0.7})
	l2 := list(pair{2, 0.8}, pair{3, 0.75}, pair{1, 0.5})
	a := NewAssembler([]Stream{cutAfter{l1, &budget, &cut}, cutAfter{l2, &budget, &cut}}, 2)
	a.Expire(func() bool { return cut })
	finals := a.Run(nil)
	if !cut || !a.Done() || a.Stats().Exhausted {
		t.Fatalf("cut %v, done %v, stats %+v: want a cut, non-exhausted run", cut, a.Done(), a.Stats())
	}
	if len(finals) != 1 || finals[0].Pivot != 2 || math.Abs(finals[0].Score-1.6) > 1e-12 {
		t.Fatalf("finals %+v, want pivot 2 at its exact 1.6", finals)
	}
	// Pivot 1 has 0.9 and may still gain ψcur(l2) = 0.75.
	if _, umax := a.Bounds(); math.Abs(umax-1.65) > 1e-12 {
		t.Fatalf("U_max after the cut = %v, want 1.65", umax)
	}
}

func TestAssembleRequiresCompleteness(t *testing.T) {
	// Pivot 9 appears only in the first list and must not be returned even
	// though its single pss is high.
	l1 := list(pair{9, 0.99}, pair{1, 0.6})
	l2 := list(pair{1, 0.6})
	got, stats := Assemble([]Stream{l1, l2}, 5)
	if len(got) != 1 || got[0].Pivot != 1 {
		t.Fatalf("got %v, want only pivot 1", got)
	}
	// l2 runs dry in round 2, so pivot 9 can never complete: with the top
	// short of k and no candidate left, the assembly stops before l1 is
	// exhausted.
	if stats.Exhausted || stats.Rounds != 2 {
		t.Errorf("stats %+v: want a stop in round 2 without exhausting l1", stats)
	}
}

func TestAssembleEdgeCases(t *testing.T) {
	if got, _ := Assemble(nil, 3); got != nil {
		t.Error("no streams should yield nil")
	}
	if got, _ := Assemble([]Stream{list()}, 0); got != nil {
		t.Error("k=0 should yield nil")
	}
	got, _ := Assemble([]Stream{list(), list()}, 3)
	if len(got) != 0 {
		t.Errorf("empty streams should yield no finals, got %v", got)
	}
	// Single stream: assembly degenerates to top-k of the stream.
	got, _ = Assemble([]Stream{list(pair{1, 0.9}, pair{2, 0.7})}, 1)
	if len(got) != 1 || got[0].Pivot != 1 {
		t.Errorf("single stream top-1 = %v", got)
	}
}

// countingStream counts sorted accesses to prove early termination.
type countingStream struct {
	inner *SliceStream
	n     int
}

func (c *countingStream) Next() (astar.Match, bool) {
	c.n++
	return c.inner.Next()
}

// TestAssembleEarlyTermination mirrors the paper's Figure 10: termination
// as soon as L_k >= U_max, long before the tails of the lists are read.
func TestAssembleEarlyTermination(t *testing.T) {
	long1 := []pair{{1, 0.9}, {2, 0.85}}
	long2 := []pair{{1, 0.9}, {2, 0.8}}
	for i := 0; i < 100; i++ {
		long1 = append(long1, pair{kg.NodeID(100 + i), 0.2 - float64(i)*0.001})
		long2 = append(long2, pair{kg.NodeID(500 + i), 0.2 - float64(i)*0.001})
	}
	c1 := &countingStream{inner: list(long1...)}
	c2 := &countingStream{inner: list(long2...)}
	got, stats := Assemble([]Stream{c1, c2}, 2)
	if len(got) != 2 || got[0].Pivot != 1 || got[1].Pivot != 2 {
		t.Fatalf("finals = %v", got)
	}
	if stats.Exhausted {
		t.Error("assembly should terminate early, not exhaust")
	}
	if c1.n+c2.n > 20 {
		t.Errorf("accesses = %d, expected early termination well under 20", c1.n+c2.n)
	}
}

// TestAssembleMatchesNaiveJoin: on random inputs the TA assembly must agree
// with the oracle's exhaustive join under its comparison rule (Theorem 3):
// the same score vector, every pivot above the k-th score, each pivot at
// its own joined score.
func TestAssembleMatchesNaiveJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		nLists := rng.Intn(3) + 1
		k := rng.Intn(5) + 1
		// Streams are deduplicated per pivot (the searcher emits one match
		// per entity): keep the max.
		best := make([]map[kg.NodeID]oracle.Match, nLists)
		streams := make([]Stream, nLists)
		for i := range best {
			best[i] = make(map[kg.NodeID]oracle.Match)
			for j, m := 0, rng.Intn(30); j < m; j++ {
				p, pss := kg.NodeID(rng.Intn(12)), rng.Float64()
				if pss > best[i][p].PSS {
					best[i][p] = oracle.Match{PSS: pss}
				}
			}
			var dedup []pair
			for piv, m := range best[i] {
				dedup = append(dedup, pair{piv, m.PSS})
			}
			streams[i] = list(dedup...)
		}
		finals, _ := Assemble(streams, k)
		got := make([]oracle.Scored, len(finals))
		for i, f := range finals {
			got[i] = oracle.Scored{Pivot: f.Pivot, Score: f.Score}
		}
		if err := oracle.Compare(got, oracle.Join(best), k, false); err != nil {
			t.Fatalf("trial %d: %v (got %+v)", trial, err, got)
		}
	}
}

func TestSliceStream(t *testing.T) {
	s := &SliceStream{Matches: []astar.Match{entry(1, 0.9), entry(2, 0.8)}}
	m, ok := s.Next()
	if !ok || m.End() != 1 {
		t.Fatalf("first Next = (%v,%v)", m, ok)
	}
	if _, ok := s.Next(); !ok {
		t.Fatal("second Next should succeed")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("third Next should fail")
	}
}
