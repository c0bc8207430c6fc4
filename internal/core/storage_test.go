package core

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"semkg/internal/datagen"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/tbq"
)

// snapshotRoundTrip serializes and reloads a graph through the binary
// codec.
func snapshotRoundTrip(t *testing.T, g *kg.Graph) *kg.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := kg.WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := kg.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return g2
}

// spaceByName rebuilds a predicate space for g reusing the vectors of sp,
// matched by predicate name (graphs reloaded from storage can intern
// predicates in a different order).
func spaceByName(t *testing.T, g *kg.Graph, sp *embed.Space) *embed.Space {
	t.Helper()
	byName := make(map[string]embed.Vector, sp.Len())
	for i := 0; i < sp.Len(); i++ {
		byName[sp.Name(i)] = sp.Vector(i)
	}
	names := g.Predicates()
	vecs := make([]embed.Vector, len(names))
	for i, n := range names {
		v, ok := byName[n]
		if !ok {
			t.Fatalf("no vector for predicate %q", n)
		}
		vecs[i] = v
	}
	out, err := embed.NewSpace(names, vecs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// workloadQueries picks a cross-section of the generated workload.
func workloadQueries(ds *datagen.Dataset) []datagen.GenQuery {
	queries := append([]datagen.GenQuery{}, ds.Simple...)
	if len(queries) > 3 {
		queries = queries[:3]
	}
	if len(ds.Medium) > 0 {
		queries = append(queries, ds.Medium[0])
	}
	if len(ds.Complex) > 0 {
		queries = append(queries, ds.Complex[0])
	}
	return queries
}

// TestSnapshotSearchEquivalence is the snapshot acceptance property: for
// generated worlds, an engine over ReadSnapshot(WriteSnapshot(g)) returns
// search results identical to the engine over g, for both the exact SGQ
// mode and the time-bounded TBQ mode.
func TestSnapshotSearchEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{3, 17} {
		ds, e := tinyWorld(t, seed)
		g2 := snapshotRoundTrip(t, ds.Graph)
		e2, err := NewEngine(g2, spaceByName(t, g2, e.Space()), ds.Library)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range workloadQueries(ds) {
			sgq := Options{K: 5, Tau: 0.5, MaxHops: 3}
			want, err := e.Search(ctx, q.Graph, sgq)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, q.Name, err)
			}
			got, err := e2.Search(ctx, q.Graph, sgq)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, q.Name, err)
			}
			assertResultsEqual(t, q.Name+"/sgq", got, want)
			oracleCheck(t, q.Name+"/sgq over the reloaded graph", e2, ds.Library, q.Graph, sgq, got)

			tbqOpts := func() Options {
				return Options{K: 5, Tau: 0.5, MaxHops: 3,
					TimeBound: time.Hour, Clock: &tbq.StepClock{Step: time.Microsecond}}
			}
			want, err = e.Search(ctx, q.Graph, tbqOpts())
			if err != nil {
				t.Fatal(err)
			}
			got, err = e2.Search(ctx, q.Graph, tbqOpts())
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, q.Name+"/tbq", got, want)
		}
	}
}

// TestDeltaSearchEquivalence is the delta-commit acceptance property at
// the engine level: committing a random split of a world's statements as
// (base, delta) produces an engine whose search results are identical to
// one built over the full statement stream at once.
func TestDeltaSearchEquivalence(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 11)

	var buf bytes.Buffer
	if err := kg.WriteTriples(&buf, ds.Graph); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	rng := rand.New(rand.NewSource(99))
	var base, rest []string
	for _, ln := range lines {
		if rng.Float64() < 0.6 {
			base = append(base, ln)
		} else {
			rest = append(rest, ln)
		}
	}

	full, err := kg.ReadTriples(strings.NewReader(strings.Join(append(append([]string{}, base...), rest...), "\n")))
	if err != nil {
		t.Fatal(err)
	}
	baseG, err := kg.ReadTriples(strings.NewReader(strings.Join(base, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	d := kg.NewDelta(baseG)
	for _, ln := range rest {
		parts := strings.Split(ln, "\t")
		if err := d.ApplyTriple(parts[0], parts[1], parts[2]); err != nil {
			t.Fatalf("ApplyTriple(%q): %v", ln, err)
		}
	}
	committed := d.Commit()

	eFull, err := NewEngine(full, spaceByName(t, full, e.Space()), ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	eCommit, err := NewEngine(committed, spaceByName(t, committed, e.Space()), ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range workloadQueries(ds) {
		opts := Options{K: 5, Tau: 0.5, MaxHops: 3}
		want, err := eFull.Search(ctx, q.Graph, opts)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		got, err := eCommit.Search(ctx, q.Graph, opts)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		assertResultsEqual(t, q.Name+"/delta", got, want)
		oracleCheck(t, q.Name+"/over the committed graph", eCommit, ds.Library, q.Graph, opts, got)
	}
}

// TestEngineFromSnapshot: the storage-layer construction path loads a
// snapshot and answers queries; a graph that grew a predicate after
// training still builds (SpaceFor padding).
func TestEngineFromSnapshot(t *testing.T) {
	ds, e := tinyWorld(t, 5)
	sp := e.Space()
	model := &embed.Model{Relations: make([]embed.Vector, sp.Len())}
	for i := 0; i < sp.Len(); i++ {
		model.Relations[i] = sp.Vector(i)
	}

	var buf bytes.Buffer
	if err := kg.WriteSnapshot(&buf, ds.Graph); err != nil {
		t.Fatal(err)
	}
	e2, err := EngineFromSnapshot(&buf, model, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Simple[0]
	want, err := e.Search(context.Background(), q.Graph, Options{K: 5, Tau: 0.5, MaxHops: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e2.Search(context.Background(), q.Graph, Options{K: 5, Tau: 0.5, MaxHops: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, q.Name+"/from-snapshot", got, want)

	// Grow the graph past the trained space: BuildEngine must pad.
	d := kg.NewDelta(ds.Graph)
	if _, err := d.AddTriple(ds.Graph.NodeName(0), "brand_new_predicate", ds.Graph.NodeName(1)); err != nil {
		t.Fatal(err)
	}
	grown := d.Commit()
	if grown.NumPredicates() != ds.Graph.NumPredicates()+1 {
		t.Fatalf("expected a new predicate, got %d vs %d", grown.NumPredicates(), ds.Graph.NumPredicates())
	}
	e3, err := BuildEngine(grown, model, ds.Library)
	if err != nil {
		t.Fatalf("BuildEngine over a grown graph: %v", err)
	}
	if _, err := e3.Search(context.Background(), q.Graph, Options{K: 5, Tau: 0.5, MaxHops: 3}); err != nil {
		t.Fatal(err)
	}
}
