package merge

import (
	"reflect"
	"testing"
)

// TestBlendAllDuplicateKeys: every list carries the same entity — the
// blend collapses to exactly one item, the best-scored occurrence, no
// matter how many lists repeat it.
func TestBlendAllDuplicateKeys(t *testing.T) {
	lists := [][]scored{
		{{"only", 0.4}},
		{{"only", 0.9}},
		{{"only", 0.7}},
		{{"only", 0.9}}, // equal best in a later list: earlier list wins
	}
	got := Blend(lists, 0, scoredKey, scoredBefore)
	if len(got) != 1 {
		t.Fatalf("all-duplicate blend kept %d items, want 1: %v", len(got), got)
	}
	if got[0] != (scored{"only", 0.9}) {
		t.Fatalf("all-duplicate blend kept %v, want the best occurrence", got[0])
	}
	// Repeated blends of the equal-best layout never flip between the
	// two 0.9 occurrences (list index breaks the tie).
	for i := 0; i < 30; i++ {
		if again := Blend(lists, 0, scoredKey, scoredBefore); !reflect.DeepEqual(again, got) {
			t.Fatalf("run %d: blend unstable: %v vs %v", i, again, got)
		}
	}
}

// TestBlendKBeyondItems: k larger than the deduplicated universe returns
// everything without padding or panic; k equal to the universe is exact.
func TestBlendKBeyondItems(t *testing.T) {
	lists := [][]scored{{{"a", 0.9}, {"b", 0.8}}, {{"a", 0.5}}}
	if got := Blend(lists, 10, scoredKey, scoredBefore); len(got) != 2 {
		t.Fatalf("k=10 over 2 distinct items: %v", got)
	}
	if got := Blend(lists, 2, scoredKey, scoredBefore); len(got) != 2 {
		t.Fatalf("k=2 exact: %v", got)
	}
}

// TestSortedAllDuplicateEntity: every source's every match ends at the
// same entity. The merger must emit exactly one match — the global best
// under the total order — and drain cleanly afterwards.
func TestSortedAllDuplicateEntity(t *testing.T) {
	s := Sorted(
		slice(m(0.6, 5, 2), m(0.3, 5, 3)),
		slice(m(0.9, 5, 1)),
		slice(m(0.6, 5, 1), m(0.1, 5, 4)),
	)
	got := drain(t, s)
	if len(got) != 1 {
		t.Fatalf("single-entity merge emitted %d matches, want 1: %+v", len(got), got)
	}
	if got[0].PSS != 0.9 || got[0].Len() != 1 {
		t.Fatalf("kept pss %v len %d, want the global best 0.9/1", got[0].PSS, got[0].Len())
	}
}

// TestSortedSourceIndexTieBreak pins the last rung of the total order:
// matches identical in PSS, end and length are taken from the
// lower-indexed source first (and then deduped), so shard numbering —
// not goroutine timing — decides.
func TestSortedSourceIndexTieBreak(t *testing.T) {
	pulled := make([]countingSource, 2)
	pulled[0] = countingSource{inner: slice(m(0.5, 7, 1))}
	pulled[1] = countingSource{inner: slice(m(0.5, 7, 1))}
	s := Sorted(&pulled[0], &pulled[1])
	got := drain(t, s)
	if len(got) != 1 {
		t.Fatalf("identical matches emitted %d times, want 1", len(got))
	}
	// Both sources were pulled (one look-ahead each) — the dedup, not
	// starvation, absorbed the duplicate.
	if pulled[0].pulled == 0 || pulled[1].pulled == 0 {
		t.Fatalf("look-ahead pulls: %d/%d, want both > 0", pulled[0].pulled, pulled[1].pulled)
	}
}
