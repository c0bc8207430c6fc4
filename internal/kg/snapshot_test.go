package kg

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// eqSlices compares two slices treating nil and empty as equal (decoded
// graphs allocate exact-length slices, built graphs may hold nil).
func eqSlices[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqIDTable(a, b map[string][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		if !eqSlices(av, b[k]) {
			return false
		}
	}
	return true
}

// assertGraphsIdentical requires got to be structurally indistinguishable
// from want: same ids, same CSR layout, same derived indexes. This is the
// strong form of equivalence — searches over the two graphs are
// bit-identical because every array a searcher touches is equal.
func assertGraphsIdentical(t testing.TB, got, want *Graph) {
	t.Helper()
	if !eqSlices(got.names, want.names) {
		t.Errorf("names differ:\n got %v\nwant %v", got.names, want.names)
	}
	if !eqSlices(got.types, want.types) {
		t.Errorf("types differ:\n got %v\nwant %v", got.types, want.types)
	}
	if !eqSlices(got.typeNames, want.typeNames) {
		t.Errorf("typeNames differ:\n got %v\nwant %v", got.typeNames, want.typeNames)
	}
	if !eqSlices(got.predNames, want.predNames) {
		t.Errorf("predNames differ:\n got %v\nwant %v", got.predNames, want.predNames)
	}
	if !eqSlices(got.edges, want.edges) {
		t.Errorf("edges differ:\n got %v\nwant %v", got.edges, want.edges)
	}
	if !eqSlices(got.adjOff, want.adjOff) {
		t.Errorf("adjOff differ:\n got %v\nwant %v", got.adjOff, want.adjOff)
	}
	if !eqSlices(got.halves, want.halves) {
		t.Errorf("halves differ:\n got %v\nwant %v", got.halves, want.halves)
	}
	if !eqSlices(got.predCount, want.predCount) {
		t.Errorf("predCount differ:\n got %v\nwant %v", got.predCount, want.predCount)
	}
	if len(got.byType) != len(want.byType) {
		t.Errorf("byType length %d vs %d", len(got.byType), len(want.byType))
	} else {
		for ti := range want.byType {
			if !eqSlices(got.byType[ti], want.byType[ti]) {
				t.Errorf("byType[%d] differ:\n got %v\nwant %v", ti, got.byType[ti], want.byType[ti])
			}
		}
	}
	if !eqSlices(got.nodePredOff, want.nodePredOff) {
		t.Errorf("nodePredOff differ:\n got %v\nwant %v", got.nodePredOff, want.nodePredOff)
	}
	if !eqSlices(got.nodePreds, want.nodePreds) {
		t.Errorf("nodePreds differ:\n got %v\nwant %v", got.nodePreds, want.nodePreds)
	}
	assertNamesEqual(t, "node names", logicalNames(got.nameIdx), logicalNames(want.nameIdx))
	assertNamesEqual(t, "type names", logicalNames(got.typeIdx), logicalNames(want.typeIdx))
}

// namesView is a vocabulary's name index as logical tables, whatever
// layers hold it: every name with its id, and every norm and initials key
// with its ids.
type namesView struct {
	ids            map[string]int32
	norm, initials map[string][]int32
}

// logicalNames reads ix into a namesView. Keys are the union over the
// layers; ids come through the lookups the accessors use.
func logicalNames(ix nameIndex) namesView {
	v := namesView{ids: map[string]int32{}, norm: map[string][]int32{}, initials: map[string][]int32{}}
	for _, l := range ix.layers {
		for k := range l.ids {
			v.ids[k] = ix.lookup(k)
		}
		for _, k := range l.norm.keys {
			v.norm[k] = gather[int32](ix, k, false)
		}
		for _, k := range l.initials.keys {
			v.initials[k] = gather[int32](ix, k, true)
		}
	}
	return v
}

func assertNamesEqual(t testing.TB, label string, got, want namesView) {
	t.Helper()
	if len(got.ids) != len(want.ids) {
		t.Errorf("%s: %d names, want %d", label, len(got.ids), len(want.ids))
	}
	for k, id := range want.ids {
		if gid, ok := got.ids[k]; !ok || gid != id {
			t.Errorf("%s: name %q -> %v (present %v), want %v", label, k, gid, ok, id)
		}
	}
	if !eqIDTable(got.norm, want.norm) {
		t.Errorf("%s: norm tables differ:\n got %v\nwant %v", label, got.norm, want.norm)
	}
	if !eqIDTable(got.initials, want.initials) {
		t.Errorf("%s: initials tables differ:\n got %v\nwant %v", label, got.initials, want.initials)
	}
}

// randomWorld builds a deterministic pseudo-random graph exercising the
// name indexes: multi-word names (initials), shared prefixes, shared
// normalized forms, untyped nodes, parallel edges and self-loops.
func randomWorld(seed int64, nodes, edges int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"United", "Motor", "Works", "Germany", "Auto", "Club", "South", "Plant"}
	types := []string{"Country", "Automobile", "Company", "Person", ""}
	preds := []string{"assembly", "product", "manufacturer", "locationCountry", "designer"}
	b := NewBuilder(nodes, edges)
	ids := make([]NodeID, 0, nodes)
	for i := 0; i < nodes; i++ {
		var name string
		switch rng.Intn(3) {
		case 0: // multi-word, initials-indexable
			name = fmt.Sprintf("%s %s %d", words[rng.Intn(len(words))], words[rng.Intn(len(words))], i)
		case 1: // shared prefix family
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
	return b.Build()
}

func snapshotBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, g := range []*Graph{
		figure2Graph(),
		randomWorld(7, 200, 600),
		randomWorld(21, 50, 0), // nodes only, no edges
	} {
		g2, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, g)))
		if err != nil {
			t.Fatal(err)
		}
		assertGraphsIdentical(t, g2, g)
	}
}

func TestSnapshotEmptyGraphRoundTrip(t *testing.T) {
	g := NewBuilder(0, 0).Build()
	g2, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, g)))
	if err != nil {
		t.Fatalf("empty graph snapshot: %v", err)
	}
	if g2.NumNodes() != 0 || g2.NumEdges() != 0 {
		t.Fatalf("empty graph came back with %d nodes, %d edges", g2.NumNodes(), g2.NumEdges())
	}
	assertGraphsIdentical(t, g2, g)
}

// TestSnapshotDeterministic: identical graphs serialize to identical bytes
// (the index tables are written in sorted order, not map order).
func TestSnapshotDeterministic(t *testing.T) {
	g := randomWorld(3, 120, 400)
	a := snapshotBytes(t, g)
	b := snapshotBytes(t, g)
	if !bytes.Equal(a, b) {
		t.Fatal("two WriteSnapshot runs of the same graph differ")
	}
}

// isSnapshotError reports whether err belongs to the typed snapshot error
// family.
func isSnapshotError(err error) bool {
	for _, sentinel := range []error{
		ErrSnapshotMagic, ErrSnapshotVersion, ErrSnapshotTruncated,
		ErrSnapshotChecksum, ErrSnapshotCorrupt,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

func TestSnapshotTypedErrors(t *testing.T) {
	valid := snapshotBytes(t, figure2Graph())

	t.Run("empty input", func(t *testing.T) {
		_, err := ReadSnapshot(bytes.NewReader(nil))
		if !errors.Is(err, ErrSnapshotTruncated) {
			t.Fatalf("err = %v, want ErrSnapshotTruncated", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte("NOTAGRPH"), valid[8:]...)
		if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotMagic) {
			t.Fatalf("err = %v, want ErrSnapshotMagic", err)
		}
		if _, err := ReadSnapshot(strings.NewReader("subject\tpred\tobject\n")); !errors.Is(err, ErrSnapshotMagic) {
			t.Fatalf("TSV input: err = %v, want ErrSnapshotMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[8] = 99
		if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("err = %v, want ErrSnapshotVersion", err)
		}
	})
	t.Run("flipped checksum byte", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[len(bad)-1] ^= 0x5a
		if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotChecksum) {
			t.Fatalf("err = %v, want ErrSnapshotChecksum", err)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[len(bad)/2] ^= 0x5a
		if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotChecksum) {
			t.Fatalf("err = %v, want ErrSnapshotChecksum", err)
		}
	})
	t.Run("every truncation point", func(t *testing.T) {
		for cut := 0; cut < len(valid); cut++ {
			_, err := ReadSnapshot(bytes.NewReader(valid[:cut]))
			if err == nil {
				t.Fatalf("truncation at %d of %d accepted", cut, len(valid))
			}
			if !isSnapshotError(err) {
				t.Fatalf("truncation at %d: untyped error %v", cut, err)
			}
		}
	})
	t.Run("corrupt with valid checksum", func(t *testing.T) {
		// A structurally broken payload behind a correct CRC must fail
		// decoding, not panic: point an edge at a node out of range.
		g := figure2Graph()
		mutated := *g
		mutated.edges = append([]Edge(nil), g.edges...)
		mutated.edges[0].Dst = NodeID(g.NumNodes() + 5)
		data := snapshotBytes(t, &mutated)
		if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("adjacency spans inconsistent with degrees", func(t *testing.T) {
		// Monotone offsets with the right total but the wrong per-node
		// spans would drive the halves-threading cursor out of range; the
		// decoder must reject them instead of panicking.
		g := figure2Graph()
		mutated := *g
		mutated.adjOff = append([]int32(nil), g.adjOff...)
		shifted := false
		for u := 0; u+1 < len(mutated.adjOff)-1 && !shifted; u++ {
			if mutated.adjOff[u+1]+1 <= mutated.adjOff[u+2] {
				mutated.adjOff[u+1]++ // steal one slot from u+1, give it to u
				shifted = true
			}
		}
		if !shifted {
			t.Fatal("could not construct a monotone-but-wrong offset array")
		}
		data := snapshotBytes(t, &mutated)
		if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("index id out of range", func(t *testing.T) {
		// Index ids are dereferenced at query time; a crafted id past the
		// vocabulary must fail the load, not a later search.
		g := figure2Graph()
		mutated := *g
		l := *g.nameIdx.layers[0]
		l.norm.ids = append([][]int32(nil), l.norm.ids...)
		l.norm.ids[0] = []int32{int32(g.NumNodes()) + 7}
		mutated.nameIdx = nameIndex{layers: []*nameLayer{&l}}
		data := snapshotBytes(t, &mutated)
		if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})
	// The lookups binary-search the stored tables and the prefix scan
	// reads the norm keys in stored order, so a table out of order must
	// fail the load, not silently miss names later. Each graph is written
	// with a valid checksum.
	for _, tc := range []struct {
		name   string
		mutate func(l *nameLayer)
	}{
		{"adjacent norm keys swapped", func(l *nameLayer) {
			l.norm.keys[0], l.norm.keys[1] = l.norm.keys[1], l.norm.keys[0]
			l.norm.ids[0], l.norm.ids[1] = l.norm.ids[1], l.norm.ids[0]
		}},
		{"id list reversed", func(l *nameLayer) {
			i := slices.IndexFunc(l.initials.ids, func(ids []int32) bool { return len(ids) > 1 })
			slices.Reverse(l.initials.ids[i])
		}},
		{"duplicated norm key", func(l *nameLayer) {
			l.norm.keys = slices.Insert(l.norm.keys, 1, l.norm.keys[0])
			l.norm.ids = slices.Insert(l.norm.ids, 1, l.norm.ids[0])
		}},
		{"empty id list", func(l *nameLayer) { l.initials.ids[0] = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := randomWorld(7, 200, 600) // fresh, so its layer may be mutated in place
			tc.mutate(g.nameIdx.layers[0])
			if _, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, g))); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
}

// TestReadGraphAutoDetect: ReadGraph dispatches on the magic bytes.
func TestReadGraphAutoDetect(t *testing.T) {
	g := figure2Graph()

	var tsv bytes.Buffer
	if err := WriteTriples(&tsv, g); err != nil {
		t.Fatal(err)
	}
	fromTSV, err := ReadGraph(bytes.NewReader(tsv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if fromTSV.NumEdges() != g.NumEdges() {
		t.Fatalf("TSV via ReadGraph: %d edges, want %d", fromTSV.NumEdges(), g.NumEdges())
	}

	fromSnap, err := ReadGraph(bytes.NewReader(snapshotBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsIdentical(t, fromSnap, g)
}
