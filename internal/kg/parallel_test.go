package kg

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// randomWorldBuilder is randomWorld stopped before Build, so tests can
// finalize the same node/edge set with different worker counts.
func randomWorldBuilder(seed int64, nodes, edges int) *Builder {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"United", "Motor", "Works", "Germany", "Auto", "Club", "South", "Plant"}
	types := []string{"Country", "Automobile", "Company", "Person", ""}
	preds := []string{"assembly", "product", "manufacturer", "locationCountry", "designer"}
	b := NewBuilder(nodes, edges)
	ids := make([]NodeID, 0, nodes)
	for i := 0; i < nodes; i++ {
		var name string
		switch rng.Intn(3) {
		case 0:
			name = fmt.Sprintf("%s %s %d", words[rng.Intn(len(words))], words[rng.Intn(len(words))], i)
		case 1:
			name = fmt.Sprintf("%s_%d", words[rng.Intn(len(words))], i)
		default:
			name = fmt.Sprintf("entity%d", i)
		}
		ids = append(ids, b.AddNode(name, types[rng.Intn(len(types))]))
	}
	for i := 0; i < edges; i++ {
		s := ids[rng.Intn(len(ids))]
		d := ids[rng.Intn(len(ids))]
		b.AddEdge(s, d, preds[rng.Intn(len(preds))])
	}
	return b
}

// TestBuildWorkersEquivalence: for randomized worlds of assorted shapes
// (dense, sparse, edgeless, tiny, empty), BuildWorkers(w) is structurally
// identical to the sequential BuildWorkers(1) for every worker count —
// same CSR arrays, same per-node adjacency order, same index buckets in
// the same id order. Run under -race this also shakes out data races in
// the node-range partitioning.
func TestBuildWorkersEquivalence(t *testing.T) {
	shapes := []struct{ nodes, edges int }{
		{0, 0},
		{1, 0},
		{3, 9},    // dense with self-loops and parallel edges
		{50, 0},   // nodes only
		{97, 311}, // awkward non-divisible sizes
		{200, 600},
		{513, 2048},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			want := randomWorldBuilder(seed, sh.nodes, sh.edges).BuildWorkers(1)
			for _, w := range []int{2, 3, 4, 8, 0} {
				got := randomWorldBuilder(seed, sh.nodes, sh.edges).BuildWorkers(w)
				assertGraphsIdentical(t, got, want)
				if t.Failed() {
					t.Fatalf("BuildWorkers(%d) diverged from serial on seed=%d nodes=%d edges=%d",
						w, seed, sh.nodes, sh.edges)
				}
			}
		}
	}
}

// TestReadSnapshotWorkersEquivalence: decoding the same snapshot with any
// worker count yields a graph structurally identical to the fully serial
// workers=1 decode (and to the graph that was written).
func TestReadSnapshotWorkersEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := randomWorld(seed, 150, 450)
		data := snapshotBytes(t, g)
		want, err := ReadSnapshotWorkers(bytes.NewReader(data), 1)
		if err != nil {
			t.Fatalf("serial decode: %v", err)
		}
		assertGraphsIdentical(t, want, g)
		for _, w := range []int{2, 3, 7, 0} {
			got, err := ReadSnapshotWorkers(bytes.NewReader(data), w)
			if err != nil {
				t.Fatalf("decode with %d workers: %v", w, err)
			}
			assertGraphsIdentical(t, got, want)
			if t.Failed() {
				t.Fatalf("ReadSnapshotWorkers(%d) diverged from serial on seed=%d", w, seed)
			}
		}
	}
}

// TestReadSnapshotWorkersTypedErrors: the parallel decoder classifies
// malformed input exactly like the serial one — every truncation point
// and the corrupt-behind-valid-CRC cases stay typed errors, never panics.
func TestReadSnapshotWorkersTypedErrors(t *testing.T) {
	valid := snapshotBytes(t, randomWorld(11, 60, 180))
	for _, w := range []int{1, 4} {
		for cut := 0; cut < len(valid); cut += 7 {
			if _, err := ReadSnapshotWorkers(bytes.NewReader(valid[:cut]), w); err == nil {
				t.Fatalf("workers=%d: truncation at %d accepted", w, cut)
			} else if !isSnapshotError(err) {
				t.Fatalf("workers=%d: truncation at %d: untyped error %v", w, cut, err)
			}
		}
	}

	// Wrong per-node spans behind a correct checksum: the decoder must
	// reject offsets that differ from the edge list's degree prefix sum
	// at every worker count, before threading the halves.
	g := randomWorld(13, 40, 120)
	mutated := *g
	mutated.adjOff = append([]int32(nil), g.adjOff...)
	shifted := false
	for u := 0; u+1 < len(mutated.adjOff)-1 && !shifted; u++ {
		if mutated.adjOff[u+1]+1 <= mutated.adjOff[u+2] {
			mutated.adjOff[u+1]++
			shifted = true
		}
	}
	if !shifted {
		t.Fatal("could not construct a monotone-but-wrong offset array")
	}
	data := snapshotBytes(t, &mutated)
	for _, w := range []int{1, 2, 8} {
		if _, err := ReadSnapshotWorkers(bytes.NewReader(data), w); err == nil {
			t.Fatalf("workers=%d: inconsistent spans accepted", w)
		} else if !isSnapshotError(err) {
			t.Fatalf("workers=%d: inconsistent spans: untyped error %v", w, err)
		}
	}
}
