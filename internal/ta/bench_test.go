package ta

import (
	"fmt"
	"math/rand"
	"testing"

	"semkg/internal/astar"
	"semkg/internal/kg"
)

// syntheticStreams builds 3 streams of n matches each, pss falling
// linearly, in which 30% of the pivots appear in every stream and the
// rest in one stream only.
func syntheticStreams(n int) [][]astar.Match {
	rng := rand.New(rand.NewSource(int64(n)))
	shared := n * 3 / 10
	out := make([][]astar.Match, 3)
	for s := range out {
		pivots := make([]kg.NodeID, n)
		for i := range pivots {
			if i < shared {
				pivots[i] = kg.NodeID(i)
			} else {
				pivots[i] = kg.NodeID(shared + s*n + i)
			}
		}
		rng.Shuffle(n, func(i, j int) { pivots[i], pivots[j] = pivots[j], pivots[i] })
		out[s] = make([]astar.Match, n)
		for i, p := range pivots {
			out[s][i] = entry(p, 1-float64(i)/float64(n))
		}
	}
	return out
}

// assembleSynthetic runs the assembly with k at 1% of the stream length,
// so the accesses grow in proportion to the streams.
func assembleSynthetic(ms [][]astar.Match) Stats {
	streams := make([]Stream, len(ms))
	for i := range ms {
		streams[i] = &SliceStream{Matches: ms[i]}
	}
	_, st := Assemble(streams, len(ms[0])/100)
	return st
}

var benchSizes = []int{1 << 10, 1 << 12, 1 << 14}

// BenchmarkAssemble reports the cost per sorted access, which stays flat
// as the streams grow when the assembly's bookkeeping is incremental.
func BenchmarkAssemble(b *testing.B) {
	for _, n := range benchSizes {
		ms := syntheticStreams(n)
		b.Run(fmt.Sprintf("%dk", n>>10), func(b *testing.B) {
			b.ReportAllocs()
			accesses := 0
			for i := 0; i < b.N; i++ {
				accesses += assembleSynthetic(ms).Accesses
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
		})
	}
}

// TestAssembleAllocsScale guards against per-round allocation: four times
// the input may cost at most 4.5 times the allocations.
func TestAssembleAllocsScale(t *testing.T) {
	ms4, ms16 := syntheticStreams(1<<12), syntheticStreams(1<<14)
	a4 := testing.AllocsPerRun(3, func() { assembleSynthetic(ms4) })
	a16 := testing.AllocsPerRun(3, func() { assembleSynthetic(ms16) })
	if a16 > 4.5*a4 {
		t.Fatalf("allocs/op %v at 16k > 4.5 × %v at 4k", a16, a4)
	}
	t.Logf("allocs/op: 4k %v, 16k %v; accesses 4k %d, 16k %d", a4, a16,
		assembleSynthetic(ms4).Accesses, assembleSynthetic(ms16).Accesses)
}
