package merge

import (
	"testing"

	"semkg/internal/astar"
	"semkg/internal/kg"
	"semkg/internal/ta"
)

// m builds a one-node match (enough for merge ordering: PSS + End + Len).
func m(pss float64, end kg.NodeID, hops int) astar.Match {
	nodes := make([]kg.NodeID, hops+1)
	for i := range nodes {
		nodes[i] = end // only the last entry (End) matters to the merger
	}
	return astar.Match{Nodes: nodes, Edges: make([]kg.EdgeID, hops), PSS: pss}
}

// slice adapts matches to a Source.
func slice(ms ...astar.Match) Source { return &ta.SliceStream{Matches: ms} }

// drain pulls the merger dry.
func drain(t *testing.T, s *Merged) []astar.Match {
	t.Helper()
	var out []astar.Match
	for {
		mm, ok := s.Next()
		if !ok {
			return out
		}
		if len(out) > 0 && mm.PSS > out[len(out)-1].PSS {
			t.Fatalf("merged stream not sorted: %v after %v", mm.PSS, out[len(out)-1].PSS)
		}
		out = append(out, mm)
	}
}

func TestSortedMergesByPSS(t *testing.T) {
	s := Sorted(
		slice(m(0.9, 1, 1), m(0.5, 2, 1), m(0.1, 3, 1)),
		slice(m(0.8, 4, 1), m(0.6, 5, 1)),
		slice(m(0.7, 6, 1)),
	)
	got := drain(t, s)
	want := []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.1}
	if len(got) != len(want) {
		t.Fatalf("merged %d matches, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].PSS != w {
			t.Fatalf("position %d: PSS %v, want %v", i, got[i].PSS, w)
		}
	}
}

// TestSortedEmptySources covers the empty-shard edge cases: sources that
// are empty from the start, a merger with no sources at all, and the
// all-candidates-in-one-shard skew.
func TestSortedEmptySources(t *testing.T) {
	if _, ok := Sorted().Next(); ok {
		t.Fatal("empty merger produced a match")
	}
	s := Sorted(slice(), slice(m(0.9, 1, 1), m(0.8, 2, 1)), slice())
	got := drain(t, s)
	if len(got) != 2 || got[0].End() != 1 || got[1].End() != 2 {
		t.Fatalf("single-populated-source merge wrong: %+v", got)
	}
}

// TestSortedTieBreak pins the deterministic total order on duplicate
// scores across shards (End ascending, then path length, then source
// index) and the per-entity dedup: the same end node reached in several
// shards is emitted once, with its best match — exactly what a single
// whole-graph searcher's stream would contain.
func TestSortedTieBreak(t *testing.T) {
	s := Sorted(
		slice(m(0.7, 9, 2)),
		slice(m(0.7, 3, 1)),
		slice(m(0.7, 3, 2)),
	)
	got := drain(t, s)
	if len(got) != 2 {
		t.Fatalf("merged %d, want 2 (duplicate end deduped)", len(got))
	}
	// End 3 before End 9; among End 3 the shorter path wins the tie and
	// the longer duplicate is absorbed.
	if got[0].End() != 3 || got[0].Len() != 1 {
		t.Fatalf("first = end %d len %d, want end 3 len 1", got[0].End(), got[0].Len())
	}
	if got[1].End() != 9 {
		t.Fatalf("second = end %d, want 9", got[1].End())
	}

	// Fully identical matches from different sources dedup to one, and
	// the result is stable across re-merges.
	mk := func() *Merged {
		return Sorted(slice(m(0.5, 7, 1)), slice(m(0.5, 7, 1)))
	}
	a := drain(t, mk())
	b := drain(t, mk())
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("identical-match dedup failed: %d and %d entries", len(a), len(b))
	}
}

// countingSource counts how many matches were pulled, to verify the
// merger is demand-driven (one look-ahead, no deep prefetch).
type countingSource struct {
	inner  Source
	pulled int
}

func (c *countingSource) Next() (astar.Match, bool) {
	c.pulled++
	return c.inner.Next()
}

func TestSortedIsLazy(t *testing.T) {
	hot := &countingSource{inner: slice(m(0.9, 1, 1), m(0.8, 2, 1), m(0.7, 3, 1))}
	cold := &countingSource{inner: slice(m(0.1, 4, 1), m(0.05, 5, 1))}
	s := Sorted(hot, cold)
	for i := 0; i < 3; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatal("merger dried up early")
		}
	}
	// After 3 pulls (all from hot), cold supplied only its look-ahead.
	if cold.pulled != 1 {
		t.Fatalf("cold source pulled %d times, want 1 (look-ahead only)", cold.pulled)
	}
	if hot.pulled > 4 {
		t.Fatalf("hot source pulled %d times, want <= 4", hot.pulled)
	}
}
