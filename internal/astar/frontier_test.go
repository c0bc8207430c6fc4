package astar

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFrontierBasic(t *testing.T) {
	var f frontier
	if _, _, ok := f.pop(); ok {
		t.Fatal("pop on an empty frontier returned ok")
	}
	f.push(0, 2)
	f.push(1, 1)
	f.push(2, 3)
	for _, want := range []int32{2, 0, 1} {
		if idx, _, ok := f.pop(); !ok || idx != want {
			t.Fatalf("pop = (%d,%v), want %d", idx, ok, want)
		}
	}
	if len(f) != 0 {
		t.Fatalf("len after draining = %d, want 0", len(f))
	}
}

// TestFrontierStableTies: equal priorities pop in push (arena) order.
func TestFrontierStableTies(t *testing.T) {
	var f frontier
	for i := int32(0); i < 10; i++ {
		f.push(i, 1)
	}
	for i := int32(0); i < 10; i++ {
		if idx, _, _ := f.pop(); idx != i {
			t.Fatalf("tie order: got %d at position %d", idx, i)
		}
	}
}

func TestFrontierOrderingProperty(t *testing.T) {
	prop := func(priorities []float64) bool {
		var f frontier
		for i, p := range priorities {
			f.push(int32(i), p)
		}
		prev, first := 0.0, true
		for {
			_, p, ok := f.pop()
			if !ok {
				return true
			}
			if !first && p > prev {
				return false
			}
			prev, first = p, false
		}
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestFrontierPopsInSortOrder: under random interleavings of pushes (with
// increasing indices, as the arena allocates them) and pops, on a coarse
// grid so ties abound, every pop is the reference's first state in
// (priority desc, index asc) order.
func TestFrontierPopsInSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var f frontier
		var ref []open
		next := int32(0)
		for op := 0; op < 400; op++ {
			if rng.Intn(3) > 0 || len(ref) == 0 {
				pri := float64(rng.Intn(8)) / 8
				f.push(next, pri)
				ref = append(ref, open{pri, next})
				next++
				continue
			}
			b := 0
			for i := range ref {
				if ref[i].before(ref[b]) {
					b = i
				}
			}
			want := ref[b]
			ref = append(ref[:b], ref[b+1:]...)
			if idx, pri, ok := f.pop(); !ok || idx != want.idx || pri != want.pri {
				t.Fatalf("trial %d op %d: pop (%d,%v,%v), want (%d,%v)", trial, op, idx, pri, ok, want.idx, want.pri)
			}
		}
	}
}
