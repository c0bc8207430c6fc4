package serve

import (
	"testing"

	"semkg/internal/core"
)

func TestLRUEviction(t *testing.T) {
	c := newLRU[int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Add("c", 3) // evicts b (least recently used after the Get refreshed a)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for key, want := range map[string]int{"a": 1, "c": 3} {
		got, ok := c.Get(key)
		if !ok || got != want {
			t.Fatalf("Get(%q) = %d,%t want %d", key, got, ok, want)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestLRUUpdate(t *testing.T) {
	c := newLRU[string](4)
	c.Add("k", "v1")
	c.Add("k", "v2")
	if got, _ := c.Get("k"); got != "v2" {
		t.Fatalf("Get = %q, want v2", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (update, not insert)", c.Len())
	}
}

func TestLRUDisabled(t *testing.T) {
	c := newLRU[int](0)
	c.Add("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestKeysDistinguishRequests(t *testing.T) {
	a, b := q117(), q117()
	optsA, optsB := testOpts(), testOpts()
	if resultKey(a, optsA) != resultKey(b, optsB) {
		t.Fatal("identical requests produced different keys")
	}
	optsB.K = 3
	if resultKey(a, optsA) == resultKey(b, optsB) {
		t.Fatal("different K shared a result key")
	}
	if planKey(a, optsA) != planKey(b, optsB) {
		t.Fatal("K changed the plan key (it is a runtime option)")
	}
	optsB = testOpts()
	optsB.Tau = 0.9
	if planKey(a, optsA) == planKey(b, optsB) {
		t.Fatal("different tau shared a plan key")
	}
	b.Nodes[1].Name = "France"
	if resultKey(a, optsA) == resultKey(b, optsA) {
		t.Fatal("different queries shared a result key")
	}
	// K=0 normalizes to the default K=10: both forms share an entry.
	optsA = core.Options{K: 10, Tau: 0.75}
	optsB = core.Options{K: 0, Tau: 0.75}
	if resultKey(a, optsA) != resultKey(a, optsB) {
		t.Fatal("normalized options should share a key")
	}
}
