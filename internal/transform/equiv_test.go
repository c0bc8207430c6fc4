package transform_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"semkg/internal/datagen"
	"semkg/internal/kg"
	"semkg/internal/oracle"
	"semkg/internal/strutil"
	"semkg/internal/transform"
)

// probesFor derives a battery of matching probes from a graph: real names,
// their normalized/uppercased variants, prefixes, initials, near-misses,
// and random junk — everything that exercises the four abbreviation index
// paths plus the library expansion.
func probesFor(g *kg.Graph, names []string, rng *rand.Rand, budget int) []string {
	probes := []string{"", "x", "ab", "ger", "FRG", "no such entity"}
	derive := func(name string) {
		n := strutil.Normalize(name)
		probes = append(probes, name, n)
		if len(n) >= 3 {
			probes = append(probes, n[:2], n[:3], n[:len(n)-1])
		}
		all, sig := strutil.Initials(n)
		probes = append(probes, all, sig, name+"ish")
	}
	for _, name := range names {
		if len(probes) >= budget {
			break
		}
		if rng.Float64() < 0.5 {
			derive(name)
		}
	}
	for i := 0; i < 25; i++ {
		n := rng.Intn(8) + 1
		b := make([]byte, n)
		for j := range b {
			b[j] = "abcdefgh_ "[rng.Intn(10)]
		}
		probes = append(probes, string(b))
	}
	return probes
}

// TestMatchEqualsScanOnWorlds is the index/scan equivalence property: on
// randomized datagen worlds, the index-backed MatchName/MatchTypes must
// return exactly what the oracle's linear scans over every node and type
// return — same matches, same order, with and without the synonym
// library.
func TestMatchEqualsScanOnWorlds(t *testing.T) {
	profiles := []datagen.Profile{
		datagen.DBpediaLike(0.15),
		datagen.FreebaseLike(0.12),
		datagen.YAGO2Like(0.1),
	}
	for _, base := range profiles {
		for _, seed := range []int64{base.Seed, 101, 202} {
			p := base
			p.Seed = seed
			t.Run(fmt.Sprintf("%s/seed%d", p.Name, seed), func(t *testing.T) {
				ds := datagen.Generate(p)
				g := ds.Graph
				rng := rand.New(rand.NewSource(seed * 7))

				nodeNames := make([]string, 0, g.NumNodes())
				for u := 0; u < g.NumNodes(); u++ {
					nodeNames = append(nodeNames, g.NodeName(kg.NodeID(u)))
				}
				typeNames := make([]string, 0, g.NumTypes())
				for i := 0; i < g.NumTypes(); i++ {
					typeNames = append(typeNames, g.TypeName(kg.TypeID(i)))
				}
				nameProbes := probesFor(g, nodeNames, rng, 300)
				typeProbes := probesFor(g, typeNames, rng, 200)

				for _, lib := range []*transform.Library{ds.Library, nil} {
					m := transform.NewMatcher(g, lib)
					expand := transform.NewLibrary().Expand
					if lib != nil {
						expand = lib.Expand
					}
					for _, probe := range nameProbes {
						got := m.MatchName(probe)
						want := oracle.Names(g, expand(probe))
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("MatchName(%q) (lib=%v): indexed %v, scan %v",
								probe, lib != nil, got, want)
						}
					}
					for _, probe := range typeProbes {
						got := m.MatchTypes(probe)
						want := oracle.Types(g, expand(probe))
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("MatchTypes(%q) (lib=%v): indexed %v, scan %v",
								probe, lib != nil, got, want)
						}
					}
					// MatchNode composes the two; the oracle's φ lists a
					// target node's matches in id order, not type by type.
					for i, probe := range typeProbes[:min(40, len(typeProbes), len(nameProbes))] {
						for _, name := range []string{"", nameProbes[i]} {
							got := slices.Clone(m.MatchNode(name, probe))
							slices.Sort(got)
							want := oracle.Phi(g, expand, name, probe)
							slices.Sort(want)
							if !slices.Equal(got, want) {
								t.Fatalf("MatchNode(%q, %q) (lib=%v): indexed %v, scan %v",
									name, probe, lib != nil, got, want)
							}
						}
					}
				}
			})
		}
	}
}
