package semgraph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"semkg/internal/datagen"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/oracle"
	"semkg/internal/semgraph"
)

// randomSpace builds a predicate space of random unit-ish vectors, so the
// weight rows carry realistic spread without training an embedding.
func randomSpace(t *testing.T, g *kg.Graph, rng *rand.Rand) *embed.Space {
	t.Helper()
	names := g.Predicates()
	vecs := make([]embed.Vector, len(names))
	for i := range vecs {
		v := make(embed.Vector, 16)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vecs[i] = v
	}
	sp, err := embed.NewSpace(names, vecs)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestNodeMaxEqualsScanOnWorlds is the NodePreds/adjacency equivalence
// property: on randomized datagen worlds, every weight must be bitwise the
// oracle's clamped cosine read straight from the space, and NodeMax
// (computed from the distinct-predicate CSR on every call) bitwise the
// m(u) bound's definition — the maximum of those weights over u's whole
// adjacency list and over the current and later segments — for every node
// and segment.
func TestNodeMaxEqualsScanOnWorlds(t *testing.T) {
	profiles := []datagen.Profile{
		datagen.DBpediaLike(0.12),
		datagen.FreebaseLike(0.1),
	}
	for _, base := range profiles {
		for _, seed := range []int64{base.Seed, 303} {
			p := base
			p.Seed = seed
			t.Run(fmt.Sprintf("%s/seed%d", p.Name, seed), func(t *testing.T) {
				ds := datagen.Generate(p)
				g := ds.Graph
				rng := rand.New(rand.NewSource(seed))
				sp := randomSpace(t, g, rng)

				preds := g.Predicates()
				queries := [][]string{
					{preds[rng.Intn(len(preds))]},
					{preds[rng.Intn(len(preds))], preds[rng.Intn(len(preds))]},
					{preds[0], preds[len(preds)-1], preds[rng.Intn(len(preds))]},
					{"assembley"}, // typo resolved by string similarity
				}
				for _, q := range queries {
					fast, err := semgraph.NewWeighter(g, sp, q)
					if err != nil {
						t.Fatal(err)
					}
					resolved := make([]kg.PredID, len(q))
					for seg, name := range q {
						if resolved[seg], err = semgraph.ResolvePredicate(g, name); err != nil {
							t.Fatal(err)
						}
					}
					for pid := 0; pid < g.NumPredicates(); pid++ {
						for seg := range q {
							if a, b := fast.Weight(kg.PredID(pid), seg), oracle.Weight(sp, resolved[seg], kg.PredID(pid)); a != b {
								t.Fatalf("Weight(%d, %d): %v, the space gives %v", pid, seg, a, b)
							}
						}
					}
					for u := 0; u < g.NumNodes(); u++ {
						for seg := range q {
							scan := semgraph.MinWeight
							for _, h := range g.Neighbors(kg.NodeID(u)) {
								for later := seg; later < len(q); later++ {
									scan = max(scan, oracle.Weight(sp, resolved[later], h.Pred))
								}
							}
							if a := fast.NodeMax(kg.NodeID(u), seg); a != scan {
								t.Fatalf("NodeMax(%d, %d) on %s: NodePreds %v, scan %v",
									u, seg, g.NodeName(kg.NodeID(u)), a, scan)
							}
						}
					}
				}
			})
		}
	}
}

// TestWeighterCachedEqualsUncached: rows served through a shared RowCache
// are the same values as freshly computed ones, and concurrent access is
// safe (run with -race).
func TestWeighterCachedEqualsUncached(t *testing.T) {
	ds := datagen.Generate(datagen.DBpediaLike(0.1))
	g := ds.Graph
	rng := rand.New(rand.NewSource(5))
	sp := randomSpace(t, g, rng)
	cache, err := semgraph.NewRowCache(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	preds := []string{g.Predicates()[0], g.Predicates()[1]}

	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			cw, err := semgraph.NewWeighterCached(cache, preds)
			if err != nil {
				done <- err
				return
			}
			uw, err := semgraph.NewWeighter(g, sp, preds)
			if err != nil {
				done <- err
				return
			}
			for pid := 0; pid < g.NumPredicates(); pid++ {
				for seg := range preds {
					if cw.Weight(kg.PredID(pid), seg) != uw.Weight(kg.PredID(pid), seg) {
						done <- fmt.Errorf("cached row differs at pred %d seg %d", pid, seg)
						return
					}
				}
			}
			for u := 0; u < g.NumNodes(); u += 7 {
				for seg := range preds {
					if cw.NodeMax(kg.NodeID(u), seg) != uw.NodeMax(kg.NodeID(u), seg) {
						done <- fmt.Errorf("cached NodeMax differs at node %d", u)
						return
					}
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
