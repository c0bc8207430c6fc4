package kg

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"strings"
	"testing"
)

// FuzzNameRoundTrip is the round-trip property of the storage formats over
// arbitrary names: any statement the mutation API accepts must survive
// WriteTriples → ReadTriples and WriteSnapshot → ReadSnapshot intact, and
// any name the TSV format cannot represent (tabs, newlines, carriage
// returns, leading '#', empty) must be rejected up front — never silently
// corrupted into a file that parses back differently.
//
// It drives the Delta mutators (the error-returning validation surface)
// over an empty base, which exercises the same ValidName gate as Builder
// and ReadTriples.
func FuzzNameRoundTrip(f *testing.F) {
	f.Add("Audi TT", "assembly", "Germany", "Automobile")
	f.Add("tab\tname", "p", "o", "")
	f.Add("multi\nline", "p", "o", "T")
	f.Add("#comment", "p", "o", "")
	f.Add("cr\rname", "p", "o", "")
	f.Add("", "", "", "")
	f.Add("United Motor Works", "designCompany", "BMW", "Company")

	empty := NewBuilder(0, 0).Build()
	f.Fuzz(func(t *testing.T, sub, pred, obj, typeName string) {
		d := NewDelta(empty)
		nodeErr := func() error {
			if typeName == "" {
				_, err := d.AddNode(sub, "")
				return err
			}
			_, err := d.AddNode(sub, typeName)
			return err
		}()
		tripleErr := d.ApplyTriple(sub, pred, obj)

		// Node names (subjects and edge objects) follow ValidName;
		// predicates and type names (including the object of a "type"
		// triple) follow the relaxed ValidLabel.
		subOK := ValidName(sub) == nil
		typeOK := typeName == "" || ValidLabel(typeName) == nil
		predOK := ValidLabel(pred) == nil
		objOK := ValidName(obj) == nil
		if pred == TypePredicate {
			objOK = ValidLabel(obj) == nil
		}
		wantNodeOK := subOK && typeOK
		wantTripleOK := subOK && objOK && predOK
		if (nodeErr == nil) != wantNodeOK {
			t.Fatalf("AddNode(%q, %q): err=%v, want success=%v", sub, typeName, nodeErr, wantNodeOK)
		}
		if (tripleErr == nil) != wantTripleOK {
			t.Fatalf("ApplyTriple(%q, %q, %q): err=%v, want success=%v", sub, pred, obj, tripleErr, wantTripleOK)
		}
		if !wantNodeOK || !wantTripleOK {
			return
		}
		g := d.Commit()

		// TSV round trip preserves the graph's content (ids may be
		// permuted: WriteTriples emits type lines first).
		var tsv bytes.Buffer
		if err := WriteTriples(&tsv, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadTriples(bytes.NewReader(tsv.Bytes()))
		if err != nil {
			t.Fatalf("TSV round trip failed to parse: %v\nfile:\n%s", err, tsv.String())
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("TSV round trip: (%d nodes, %d edges) -> (%d, %d)\nfile:\n%s",
				g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges(), tsv.String())
		}
		for u := 0; u < g.NumNodes(); u++ {
			name := g.NodeName(NodeID(u))
			u2 := g2.NodeByName(name)
			if u2 == NoNode {
				t.Fatalf("TSV round trip lost node %q", name)
			}
			if g.TypeName(g.NodeType(NodeID(u))) != g2.TypeName(g2.NodeType(u2)) {
				t.Fatalf("TSV round trip changed the type of %q", name)
			}
			if g.Degree(NodeID(u)) != g2.Degree(u2) {
				t.Fatalf("TSV round trip changed the degree of %q", name)
			}
		}

		// Binary round trip preserves the graph bit-for-bit.
		var snap bytes.Buffer
		if err := WriteSnapshot(&snap, g); err != nil {
			t.Fatal(err)
		}
		g3, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatalf("snapshot round trip: %v", err)
		}
		if g3.NumNodes() != g.NumNodes() || g3.NumEdges() != g.NumEdges() {
			t.Fatalf("snapshot round trip: (%d nodes, %d edges) -> (%d, %d)",
				g.NumNodes(), g.NumEdges(), g3.NumNodes(), g3.NumEdges())
		}
		for u := 0; u < g.NumNodes(); u++ {
			if g.NodeName(NodeID(u)) != g3.NodeName(NodeID(u)) {
				t.Fatalf("snapshot round trip renamed node %d", u)
			}
		}
	})
}

// FuzzReadSnapshot is the decoder's property over arbitrary payloads. The
// harness frames each payload with the magic, the version and a
// recomputed CRC, so the fuzzer reaches the structural checks rather than
// the checksum. The decoder must never panic; a graph it accepts must
// answer the name lookups for every stored table key with exactly that
// key's stored ids, and must re-encode to the very bytes it was read from.
func FuzzReadSnapshot(f *testing.F) {
	for _, g := range []*Graph{figure2Graph(), randomWorld(7, 40, 100), NewBuilder(0, 0).Build()} {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		f.Add(data[len(snapshotMagic)+4 : len(data)-4])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		framed := append([]byte(snapshotMagic), 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(framed[len(snapshotMagic):], snapshotVersion)
		framed = append(framed, payload...)
		framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(payload, castagnoli))
		g, err := ReadSnapshot(bytes.NewReader(framed))
		if err != nil {
			if !isSnapshotError(err) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		lookups := []struct {
			name string
			t    table
			get  func(string) []int32
		}{
			{"NodesByNormName", g.nameIdx.layers[0].norm, func(k string) []int32 { return toInt32(g.NodesByNormName(k)) }},
			{"NodesByInitials", g.nameIdx.layers[0].initials, func(k string) []int32 { return toInt32(g.NodesByInitials(k)) }},
			{"TypesByNormName", g.typeIdx.layers[0].norm, func(k string) []int32 { return toInt32(g.TypesByNormName(k)) }},
			{"TypesByInitials", g.typeIdx.layers[0].initials, func(k string) []int32 { return toInt32(g.TypesByInitials(k)) }},
		}
		for _, l := range lookups {
			for i, k := range l.t.keys {
				if got := l.get(k); !slices.Equal(got, l.t.ids[i]) {
					t.Fatalf("%s(%q) = %v, stored %v", l.name, k, got, l.t.ids[i])
				}
			}
		}
		var again bytes.Buffer
		if err := WriteSnapshot(&again, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), framed) {
			t.Fatalf("an accepted snapshot of %d bytes re-encodes to %d different bytes", len(framed), again.Len())
		}
	})
}

func toInt32[T ~int32](ids []T) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}

// TestBuilderPanicsOnInvalidName pins the Builder's programmer-error
// contract (Delta is the error-returning surface for untrusted input).
func TestBuilderPanicsOnInvalidName(t *testing.T) {
	for _, bad := range []string{"", "a\tb", "a\nb", "a\rb", "#x"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddNode(%q) did not panic", bad)
				}
			}()
			NewBuilder(1, 1).AddNode(bad, "")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddEdge with invalid predicate did not panic")
			}
		}()
		b := NewBuilder(2, 1)
		b.AddEdge(b.AddNode("a", ""), b.AddNode("b", ""), "bad\tpred")
	}()
}

// TestReadTriplesRejectsCarriageReturn: a field containing '\r' is a line
// error, not a stored name that would corrupt a later WriteTriples.
func TestReadTriplesRejectsCarriageReturn(t *testing.T) {
	if _, err := ReadTriples(strings.NewReader("a\rb\tp\to\n")); err == nil {
		t.Fatal("ReadTriples accepted a carriage return inside a field")
	}
}
