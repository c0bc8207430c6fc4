package kg

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// chainStream generates a deterministic statement stream cut into
// batches: a base batch, then many small ones. New names keep arriving
// (so commits keep adding name layers), spelled in case and separator
// variants of each other (shared normalized forms, initials and prefixes
// across layers), beside edges and type declarations over names already
// seen, new type and predicate names, and batches with no new name or no
// statement at all.
func chainStream(seed int64, batches int) [][]triple {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"United", "Motor", "Works", "Germany", "Auto", "Club", "of", "Union"}
	seps := []string{" ", "_", "-"}
	typeNames := []string{"Country", "Automobile", "Company", "Auto Club"}
	preds := []string{"assembly", "product", "manufacturer", "designer"}
	var known []string
	fresh := func() string {
		parts := make([]string, 0, 4)
		for j := rng.Intn(3); j >= 0; j-- {
			parts = append(parts, words[rng.Intn(len(words))])
		}
		if rng.Intn(2) == 0 {
			parts = append(parts, fmt.Sprint(rng.Intn(300)))
		}
		name := strings.Join(parts, seps[rng.Intn(len(seps))])
		if rng.Intn(3) == 0 {
			name = strings.ToLower(name)
		}
		known = append(known, name)
		return name
	}
	node := func(newShare int) string {
		if len(known) == 0 || rng.Intn(100) < newShare {
			return fresh()
		}
		return known[rng.Intn(len(known))]
	}
	out := make([][]triple, batches)
	for b := range out {
		size, newShare := rng.Intn(14), 40
		switch {
		case b == 0:
			size = 80
		case b%17 == 0:
			size = 0 // an empty delta
		case b%11 == 0:
			newShare = 0 // edges and types over known names only
		}
		for i := 0; i < size; i++ {
			switch r := rng.Intn(10); {
			case r < 3:
				tn := typeNames[rng.Intn(len(typeNames))]
				if rng.Intn(15) == 0 {
					tn = fmt.Sprintf("Kind %d", b)
				}
				out[b] = append(out[b], triple{node(newShare), TypePredicate, tn})
			default:
				p := preds[rng.Intn(len(preds))]
				if rng.Intn(20) == 0 {
					p = fmt.Sprintf("rel%d", b)
				}
				out[b] = append(out[b], triple{node(newShare), p, node(newShare)})
			}
		}
	}
	return out
}

// commitChain loads batches[0] with ReadTriples and commits every later
// batch as its own delta on the previous commit, calling step (when
// non-nil) with each committed graph and the statements it holds.
func commitChain(t testing.TB, batches [][]triple, step func(i int, g *Graph, upTo []triple)) *Graph {
	t.Helper()
	upTo := append([]triple(nil), batches[0]...)
	g, err := ReadTriples(strings.NewReader(triplesTSV(upTo)))
	if err != nil {
		t.Fatal(err)
	}
	for i, batch := range batches[1:] {
		d := NewDelta(g)
		for _, tr := range batch {
			if err := d.ApplyTriple(tr.s, tr.p, tr.o); err != nil {
				t.Fatalf("batch %d: ApplyTriple(%v): %v", i+1, tr, err)
			}
		}
		g = d.Commit()
		upTo = append(upTo, batch...)
		if step != nil {
			step(i+1, g, upTo)
		}
	}
	return g
}

// TestLayerChainedSnapshotBytes: a graph grown by a chain of commits
// serializes to exactly the bytes of the one-shot build of the same
// statement stream, so a snapshot written by a live server stores the
// logical graph whatever commit history produced it.
func TestLayerChainedSnapshotBytes(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		batches := chainStream(seed, 220)
		var all []triple
		for _, b := range batches {
			all = append(all, b...)
		}
		chained := commitChain(t, batches, nil)
		want := mustReadTriples(t, triplesTSV(all))
		if !bytes.Equal(snapshotBytes(t, chained), snapshotBytes(t, want)) {
			t.Fatalf("seed %d: WriteSnapshot of the chained graph differs from the one-shot build", seed)
		}
	}
}

// TestLayerChainedCommits is the layered index's equivalence property: a
// chain of 220 commits, crossing many layer merges (into the base layer
// too), answers every name lookup exactly as the one-shot ReadTriples
// build of the same stream does, after every commit — NodeByName for
// every name and for misses, NodesByNormName and NodesByInitials for
// every key, NodesByProperNormPrefix for every prefix of sampled keys —
// and holds the same logical tables and arrays (assertGraphsIdentical).
func TestLayerChainedCommits(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		rng := rand.New(rand.NewSource(seed))
		merges, maxLayers, rebased := 0, 0, 0
		prevLayers, prevNodes := 1, 0
		commitChain(t, chainStream(seed, 220), func(i int, g *Graph, upTo []triple) {
			want := mustReadTriples(t, triplesTSV(upTo))
			assertGraphsIdentical(t, g, want)
			if t.Failed() {
				t.Fatalf("seed %d: commit %d differs from the one-shot build", seed, i)
			}
			// A commit with new names adds one layer; each merge removes one.
			layers := g.NameLayers()
			if i > 1 && g.NumNodes() > prevNodes {
				merges += prevLayers + 1 - layers
				if layers == 1 {
					rebased++
				}
			}
			prevLayers, prevNodes, maxLayers = layers, g.NumNodes(), max(maxLayers, layers)
			checkNameLookups(t, rng, g, want)
		})
		t.Logf("seed %d: %d merges, up to %d layers, %d merges into the base layer", seed, merges, maxLayers, rebased)
		if merges < 50 || maxLayers < 4 || rebased < 2 {
			t.Fatalf("seed %d: the chain crossed %d merges (up to %d layers, %d into the base); the property needs many",
				seed, merges, maxLayers, rebased)
		}
	}
}

// checkNameLookups compares every node-name accessor of got with want's.
func checkNameLookups(t *testing.T, rng *rand.Rand, got, want *Graph) {
	t.Helper()
	misses := []string{"", "no such node", "united motor works 999"}
	for _, name := range append(misses, want.names...) {
		if g, w := got.NodeByName(name), want.NodeByName(name); g != w {
			t.Fatalf("NodeByName(%q) = %d, want %d", name, g, w)
		}
	}
	base := want.nameIdx.layers[0]
	for _, key := range append(misses, base.norm.keys...) {
		if g, w := got.NodesByNormName(key), want.NodesByNormName(key); !eqSlices(g, w) {
			t.Fatalf("NodesByNormName(%q) = %v, want %v", key, g, w)
		}
	}
	for _, key := range base.initials.keys {
		if g, w := got.NodesByInitials(key), want.NodesByInitials(key); !eqSlices(g, w) {
			t.Fatalf("NodesByInitials(%q) = %v, want %v", key, g, w)
		}
	}
	for _, key := range append(misses, base.norm.keys[rng.Intn(len(base.norm.keys))], base.norm.keys[rng.Intn(len(base.norm.keys))]) {
		for n := 0; n <= len(key); n++ {
			p := key[:n]
			if g, w := got.NodesByProperNormPrefix(p), want.NodesByProperNormPrefix(p); !eqSlices(g, w) {
				t.Fatalf("NodesByProperNormPrefix(%q) = %v, want %v", p, g, w)
			}
		}
	}
}

// batchDelta is one ingest batch of the serving benchmark's shape over g:
// 100 new nodes, each typed with an existing type and linked to an
// existing node by an existing predicate (100 edges).
func batchDelta(t testing.TB, g *Graph, seed int64) *Delta {
	rng := rand.New(rand.NewSource(seed))
	d := NewDelta(g)
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("Bench Ingest %d %d", seed, i)
		id, err := d.AddNode(name, g.TypeName(TypeID(rng.Intn(g.NumTypes()))))
		if err == nil {
			_, err = d.AddEdge(id, NodeID(rng.Intn(g.NumNodes())), g.PredName(PredID(rng.Intn(g.NumPredicates()))))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestLayerCommitAllocsFlat: a batch commit allocates as many objects on
// a 128k-node base as on a 16k-node one — the name lookups add one layer
// of the batch's size instead of copying maps that grow with the graph
// (copying them allocated 960 objects at 16k and 1856 at 128k). The
// counts are equal in a normal build; the 5% slack absorbs the race
// runtime's own allocations.
func TestLayerCommitAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 128k-node world")
	}
	allocs := func(nodes int) float64 {
		base := randomWorld(11, nodes, 3*nodes)
		return testing.AllocsPerRun(3, func() { batchDelta(t, base, 1).Commit() })
	}
	small, large := allocs(16<<10), allocs(128<<10)
	if large > 1.05*small {
		t.Fatalf("a 100-node commit allocates %.0f objects on a 16k-node base but %.0f on a 128k-node one", small, large)
	}
}

// TestLayerSharedBaseConcurrentCommits: readers of a base keep reading
// while two commits extend that same base concurrently. The layers are
// shared by all three graphs and never written, so each commit sees only
// its own batch and the base sees neither (run under -race). The base is
// itself layered — two commits deep, one merge behind it — so a commit
// that appended to the base's layer list in place would hand both
// children the same newest layer.
func TestLayerSharedBaseConcurrentCommits(t *testing.T) {
	base := randomWorld(12, 3000, 9000)
	for i := 0; i < 2; i++ {
		base = batchDelta(t, base, int64(10+i)).Commit()
	}
	if base.NameLayers() != 2 {
		t.Fatalf("base has %d name layers, want 2", base.NameLayers())
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := NodeID(i % base.NumNodes())
				if base.NodeByName(base.NodeName(u)) != u {
					t.Errorf("base lost node %d", u)
					return
				}
				base.NodesByProperNormPrefix("united")
				base.NodesByInitials("umw")
			}
		}()
	}
	commits := make([]*Graph, 2)
	var cw sync.WaitGroup
	for c := range commits {
		d := batchDelta(t, base, int64(c))
		cw.Add(1)
		go func() {
			defer cw.Done()
			commits[c] = d.Commit()
		}()
	}
	cw.Wait()
	close(stop)
	wg.Wait()
	for c, g := range commits {
		own, other := fmt.Sprintf("Bench Ingest %d 7", c), fmt.Sprintf("Bench Ingest %d 7", 1-c)
		if g.NodeByName(own) == NoNode || g.NodeByName(other) != NoNode || base.NodeByName(own) != NoNode {
			t.Fatalf("commit %d: own batch found %v, other batch found %v, base sees it %v",
				c, g.NodeByName(own) != NoNode, g.NodeByName(other) != NoNode, base.NodeByName(own) != NoNode)
		}
		if ids := g.NodesByNormName("bench_ingest_" + fmt.Sprint(c) + "_7"); len(ids) != 1 {
			t.Fatalf("commit %d: NodesByNormName of its own node = %v", c, ids)
		}
	}
}

// BenchmarkDeltaCommit commits one batch of the serving benchmark's shape
// (100 new typed nodes, 100 edges) on a 100k-node base; allocs/op and
// B/op show whether a commit's cost tracks the batch or the graph.
func BenchmarkDeltaCommit(b *testing.B) {
	base := randomWorld(13, 100_000, 300_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := batchDelta(b, base, int64(i))
		b.StartTimer()
		d.Commit()
	}
}

// errorRecorder is a testing.TB that records Errorf calls instead of
// failing the test.
type errorRecorder struct {
	testing.TB
	errors int
}

func (r *errorRecorder) Errorf(string, ...any) { r.errors++ }

// dropOneKey returns a copy of m without one of its keys.
func dropOneKey[V any](m map[string]V) map[string]V {
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	for k := range out {
		delete(out, k)
		break
	}
	return out
}

// TestAssertGraphsIdenticalRejectsMissingKey: the logical-table check
// rejects a layered graph missing any one key of any name table — a name,
// a norm key or an initials key — from its newest layer.
func TestAssertGraphsIdenticalRejectsMissingKey(t *testing.T) {
	batches := chainStream(5, 12)
	var all []triple
	for _, b := range batches {
		all = append(all, b...)
	}
	g := commitChain(t, batches, nil)
	want := mustReadTriples(t, triplesTSV(all))
	if g.NameLayers() < 2 {
		t.Fatalf("chain left %d name layers; the check needs a layered graph", g.NameLayers())
	}
	top := g.nameIdx.layers[len(g.nameIdx.layers)-1]
	for _, tc := range []struct {
		table string
		drop  func(l *nameLayer)
	}{
		{"ids", func(l *nameLayer) { l.ids = dropOneKey(top.ids) }},
		{"norm", func(l *nameLayer) { l.norm = table{top.norm.keys[1:], top.norm.ids[1:]} }},
		{"initials", func(l *nameLayer) { l.initials = table{top.initials.keys[1:], top.initials.ids[1:]} }},
	} {
		l := *top
		tc.drop(&l)
		mutated := *g
		mutated.nameIdx = nameIndex{layers: append(append([]*nameLayer(nil), g.nameIdx.layers[:len(g.nameIdx.layers)-1]...), &l)}
		rec := &errorRecorder{TB: t}
		assertGraphsIdentical(rec, &mutated, want)
		if rec.errors == 0 {
			t.Errorf("a graph missing one %s key passed assertGraphsIdentical", tc.table)
		}
	}
	rec := &errorRecorder{TB: t}
	if assertGraphsIdentical(rec, g, want); rec.errors != 0 {
		t.Fatalf("the unmutated chained graph failed assertGraphsIdentical %d times", rec.errors)
	}
}
