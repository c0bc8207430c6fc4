package keyword

import (
	"math/rand"
	"reflect"
	"testing"
)

type scored struct {
	name  string
	score float64
}

func scoredBefore(a, b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.name < b.name
}

func scoredKey(s scored) string { return s.name }

func TestBlendDedupAndOrder(t *testing.T) {
	lists := [][]scored{
		{{"a", 0.9}, {"b", 0.5}},
		{{"b", 0.7}, {"c", 0.6}},
		{{"a", 0.4}, {"d", 0.3}},
	}
	got := blendRanked(lists, 0, scoredKey, scoredBefore)
	want := []scored{{"a", 0.9}, {"b", 0.7}, {"c", 0.6}, {"d", 0.3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Blend = %v, want %v", got, want)
	}
}

func TestBlendTruncatesToK(t *testing.T) {
	lists := [][]scored{
		{{"a", 0.9}, {"b", 0.8}, {"c", 0.7}},
		{{"d", 0.85}},
	}
	got := blendRanked(lists, 2, scoredKey, scoredBefore)
	want := []scored{{"a", 0.9}, {"d", 0.85}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Blend k=2 = %v, want %v", got, want)
	}
}

// Equal scores across lists must resolve deterministically: the order tie
// falls back to name, then list index, then rank — never map iteration.
func TestBlendDeterministicTieBreak(t *testing.T) {
	lists := [][]scored{
		{{"x", 0.5}, {"y", 0.5}},
		{{"y", 0.5}, {"z", 0.5}},
	}
	first := blendRanked(lists, 0, scoredKey, scoredBefore)
	for i := 0; i < 50; i++ {
		if got := blendRanked(lists, 0, scoredKey, scoredBefore); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: Blend = %v, want %v", i, got, first)
		}
	}
	want := []scored{{"x", 0.5}, {"y", 0.5}, {"z", 0.5}}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("Blend = %v, want %v", first, want)
	}
}

func TestBlendEmptyAndNil(t *testing.T) {
	if got := blendRanked[scored](nil, 5, scoredKey, scoredBefore); len(got) != 0 {
		t.Fatalf("blendRanked(nil) = %v, want empty", got)
	}
	if got := blendRanked([][]scored{{}, nil}, 5, scoredKey, scoredBefore); len(got) != 0 {
		t.Fatalf("blendRanked(empty lists) = %v, want empty", got)
	}
}

// A single-list blend is the identity (minus per-key dedup): blending must
// never reorder a list that is already ranked under the same order.
func TestBlendSingleListIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		var l []scored
		for i := 0; i < 10; i++ {
			l = append(l, scored{name: string(rune('a' + i)), score: float64(rng.Intn(5))})
		}
		// Rank the list under the shared order first.
		sorted := blendRanked([][]scored{l}, 0, scoredKey, scoredBefore)
		again := blendRanked([][]scored{sorted}, 0, scoredKey, scoredBefore)
		if !reflect.DeepEqual(sorted, again) {
			t.Fatalf("trial %d: re-blend changed order: %v vs %v", trial, sorted, again)
		}
	}
}

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
	got := blendRanked(lists, 0, scoredKey, scoredBefore)
	if len(got) != 1 {
		t.Fatalf("all-duplicate blend kept %d items, want 1: %v", len(got), got)
	}
	if got[0] != (scored{"only", 0.9}) {
		t.Fatalf("all-duplicate blend kept %v, want the best occurrence", got[0])
	}
	// Repeated blends of the equal-best layout never flip between the
	// two 0.9 occurrences (list index breaks the tie).
	for i := 0; i < 30; i++ {
		if again := blendRanked(lists, 0, scoredKey, scoredBefore); !reflect.DeepEqual(again, got) {
			t.Fatalf("run %d: blend unstable: %v vs %v", i, again, got)
		}
	}
}

// TestBlendKBeyondItems: k larger than the deduplicated universe returns
// everything without padding or panic; k equal to the universe is exact.
func TestBlendKBeyondItems(t *testing.T) {
	lists := [][]scored{{{"a", 0.9}, {"b", 0.8}}, {{"a", 0.5}}}
	if got := blendRanked(lists, 10, scoredKey, scoredBefore); len(got) != 2 {
		t.Fatalf("k=10 over 2 distinct items: %v", got)
	}
	if got := blendRanked(lists, 2, scoredKey, scoredBefore); len(got) != 2 {
		t.Fatalf("k=2 exact: %v", got)
	}
}
