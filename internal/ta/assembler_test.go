package ta

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"semkg/internal/astar"
	"semkg/internal/kg"
)

// recStream records what an Assembler pulled, so a test can recompute
// the assembly state from exactly the same inputs.
type recStream struct {
	inner  Stream
	stream int
	log    *[]access
}

type access struct {
	stream int
	m      astar.Match
	ok     bool
}

func (r *recStream) Next() (astar.Match, bool) {
	m, ok := r.inner.Next()
	*r.log = append(*r.log, access{r.stream, m, ok})
	return m, ok
}

type refCand struct {
	pivot kg.NodeID
	seen  []bool
	lower float64
	n     int
}

// recompute derives the top-k, L_k and U_max from scratch after a prefix
// of pulls, straight from Eq. 8-11 and the dry-stream rule: a candidate is
// live while it is seen in every dry stream, and no pivot first met after
// a stream ran dry is a candidate. A pull at a pivot that is not live, or
// already seen in its stream, is skipped: it is no access and leaves ψcur
// alone. Lower sums pss in access order, upper adds ψcur (1 before the
// first access, 0 once dry) for every unseen stream, and U_max ranges over
// the live candidates outside the top plus — while no stream is dry — the
// never-seen candidate Σ ψcur.
func recompute(log []access, n, k int) (top []*refCand, live map[kg.NodeID]*refCand, lk, umax float64, dead, accesses int) {
	psi := make([]float64, n)
	for i := range psi {
		psi[i] = 1
	}
	dry := make([]bool, n)
	isLive := func(c *refCand) bool {
		for i := range dry {
			if dry[i] && !c.seen[i] {
				return false
			}
		}
		return true
	}
	all := map[kg.NodeID]*refCand{}
	for _, x := range log {
		if !x.ok {
			psi[x.stream], dry[x.stream] = 0, true
			dead++
			accesses++
			continue
		}
		c := all[x.m.End()]
		if c == nil && dead > 0 || c != nil && (!isLive(c) || c.seen[x.stream]) {
			continue
		}
		accesses++
		psi[x.stream] = x.m.PSS
		if c == nil {
			c = &refCand{pivot: x.m.End(), seen: make([]bool, n)}
			all[x.m.End()] = c
		}
		c.seen[x.stream], c.lower, c.n = true, c.lower+x.m.PSS, c.n+1
	}
	live = map[kg.NodeID]*refCand{}
	for p, c := range all {
		if isLive(c) {
			live[p] = c
		}
	}
	for _, c := range live {
		if c.n == n {
			top = append(top, c)
		}
	}
	sort.Slice(top, func(i, j int) bool {
		return top[i].lower > top[j].lower || top[i].lower == top[j].lower && top[i].pivot < top[j].pivot
	})
	top = top[:min(len(top), k)]
	if len(top) == k {
		lk = top[k-1].lower
	}
	if dead == 0 {
		for _, p := range psi {
			umax += p
		}
	}
	for _, c := range live {
		if slices.Contains(top, c) {
			continue
		}
		u := c.lower
		for i := range psi {
			if !c.seen[i] {
				u += psi[i]
			}
		}
		umax = max(umax, u)
	}
	return top, live, lk, umax, dead, accesses
}

// TestAssemblerMatchesRecompute checks the incremental bookkeeping against
// a from-scratch recompute after every round: the live candidates, the
// provisional top-k, Bounds() and the access count agree on every round,
// the terminal one included, and the assembler stops on exactly the first
// round where Theorem 3 holds (len(top) == k && L_k >= U_max), every
// stream is dry, or a stream is dry with the top short of k and no live
// candidate outside it; Changes grows exactly on the rounds that change
// the provisional ranking. Scores sit on a 0.05 grid so ties at the k-th
// score occur; pivots are drawn with a skew so evicted candidates are seen
// again.
func TestAssemblerMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var evictedThenSeen, kthTies, skipped, closedStops int
	for trial := 0; trial < 150; trial++ {
		n, k := 1+rng.Intn(6), 1+rng.Intn(8)
		pivots := 1 + rng.Intn(400)
		var log []access
		streams := make([]Stream, n)
		for i := range streams {
			ms := make([]astar.Match, rng.Intn(pivots+1))
			for j, p := range rng.Perm(pivots)[:len(ms)] {
				ms[j] = entry(kg.NodeID(p), float64(rng.Intn(21))*0.05)
			}
			sort.SliceStable(ms, func(a, b int) bool { return ms[a].PSS > ms[b].PSS })
			streams[i] = &recStream{inner: &SliceStream{Matches: ms}, stream: i, log: &log}
		}
		asm := NewAssembler(streams, k)
		var prevTop []Final
		prevChanges := 0
		for round := 1; ; round++ {
			evicted := map[kg.NodeID]bool{}
			for p, c := range asm.cands {
				evicted[p] = c.slot == outside
			}
			before := len(log)
			more := asm.Step()
			for _, x := range log[before:] {
				if x.ok && evicted[x.m.End()] {
					evictedThenSeen++
				}
			}
			top, live, lk, umax, dead, accesses := recompute(log, n, k)
			skipped += len(log) - accesses
			outside := len(live) - len(top)
			closedStop := dead > 0 && len(top) < k && outside == 0
			want := len(top) == k && lk >= umax || dead == n || closedStop
			if more == want {
				t.Fatalf("trial %d round %d: Step()=%v, but reference stop rule says %v", trial, round, more, want)
			}
			if closedStop && dead < n {
				closedStops++
			}
			if got := asm.Stats().Accesses; got != accesses {
				t.Fatalf("trial %d round %d: %d accesses, recompute counts %d", trial, round, got, accesses)
			}
			if len(asm.cands) != len(live) {
				t.Fatalf("trial %d round %d: %d candidates tracked, %d live", trial, round, len(asm.cands), len(live))
			}
			for p, c := range live { // tombstones included
				if got := asm.cands[p]; got == nil || got.lower != c.lower || got.nSeen != c.n {
					t.Fatalf("trial %d round %d: pivot %d at %+v, want (%v,%d)", trial, round, p, got, c.lower, c.n)
				}
			}
			if gl, gu := asm.Bounds(); gl != lk || gu != umax {
				t.Fatalf("trial %d round %d: Bounds()=(%v,%v), recompute (%v,%v)", trial, round, gl, gu, lk, umax)
			}
			prov := asm.Provisional()
			if len(prov) != len(top) {
				t.Fatalf("trial %d round %d: provisional has %d, want %d", trial, round, len(prov), len(top))
			}
			for i, c := range top {
				if prov[i].Pivot != c.pivot || prov[i].Score != c.lower {
					t.Fatalf("trial %d round %d rank %d: (%d,%v), want (%d,%v)", trial, round, i, prov[i].Pivot, prov[i].Score, c.pivot, c.lower)
				}
			}
			sameTop := slices.EqualFunc(prov, prevTop, func(a, b Final) bool { return a.Pivot == b.Pivot && a.Score == b.Score })
			if grew := asm.Changes() != prevChanges; grew == sameTop {
				t.Fatalf("trial %d round %d: Changes %d -> %d, but the ranking changed: %v", trial, round, prevChanges, asm.Changes(), !sameTop)
			}
			prevTop, prevChanges = prov, asm.Changes()
			if len(top) == k {
				for _, c := range live {
					if c.n == n && c.lower == lk && !slices.Contains(top, c) {
						kthTies++
						break
					}
				}
			}
			if !more {
				if !reflect.DeepEqual(asm.Finals(), prov) && len(prov) > 0 {
					t.Fatalf("trial %d: finals %+v != last provisional %+v", trial, asm.Finals(), prov)
				}
				break
			}
		}
	}
	if evictedThenSeen == 0 || kthTies == 0 || skipped == 0 || closedStops == 0 {
		t.Fatalf("weak inputs: %d sightings of evicted candidates, %d rounds with a tie at the k-th score, %d skipped pulls, %d stops on a dry stream",
			evictedThenSeen, kthTies, skipped, closedStops)
	}
}

// restrictable is a SliceStream that honours Restrict by filtering at read
// time, as a restricted searcher does.
type restrictable struct {
	SliceStream
	want func(kg.NodeID) bool
}

func (r *restrictable) Restrict(want func(kg.NodeID) bool) { r.want = want }

func (r *restrictable) Next() (astar.Match, bool) {
	for {
		m, ok := r.SliceStream.Next()
		if !ok || r.want == nil || r.want(m.End()) {
			return m, ok
		}
	}
}

// TestRestrictIsInvisible: streams that drop what the assembly would skip
// leave every round unchanged — bounds, provisional top-k, changes, stats
// and finals — and are restricted only once a stream has run dry.
func TestRestrictIsInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	restricted := 0
	for trial := 0; trial < 150; trial++ {
		n, k := 2+rng.Intn(4), 1+rng.Intn(8)
		pivots := 1 + rng.Intn(300)
		plain := make([]Stream, n)
		hinted := make([]Stream, n)
		rs := make([]*restrictable, n)
		for i := range plain {
			ms := make([]astar.Match, rng.Intn(pivots+1))
			for j, p := range rng.Perm(pivots)[:len(ms)] {
				ms[j] = entry(kg.NodeID(p), float64(rng.Intn(21))*0.05)
			}
			sort.SliceStable(ms, func(a, b int) bool { return ms[a].PSS > ms[b].PSS })
			plain[i] = &SliceStream{Matches: ms}
			rs[i] = &restrictable{SliceStream: SliceStream{Matches: ms}}
			hinted[i] = rs[i]
		}
		a, b := NewAssembler(plain, k), NewAssembler(hinted, k)
		for round := 1; ; round++ {
			more := a.Step()
			if b.Step() != more {
				t.Fatalf("trial %d round %d: restricted assembly stopped differently", trial, round)
			}
			al, au := a.Bounds()
			bl, bu := b.Bounds()
			if al != bl || au != bu || a.Changes() != b.Changes() || a.Stats() != b.Stats() ||
				!reflect.DeepEqual(a.Provisional(), b.Provisional()) {
				t.Fatalf("trial %d round %d: restricted assembly diverged", trial, round)
			}
			if !more {
				break
			}
		}
		if !reflect.DeepEqual(a.Finals(), b.Finals()) {
			t.Fatalf("trial %d: finals differ", trial)
		}
		for i, r := range rs {
			if r.want != nil && !b.closed {
				t.Fatalf("trial %d stream %d: restricted, but no stream ran dry", trial, i)
			}
			if r.want != nil {
				restricted++
			}
		}
	}
	if restricted == 0 {
		t.Fatal("weak inputs: no stream was ever restricted")
	}
}

// TestFinalPartsUnshared: finals alias the slab, but an append to one
// final's Parts must not write into a neighbour's or into an earlier
// Provisional snapshot.
func TestFinalPartsUnshared(t *testing.T) {
	l1 := list(pair{1, 0.9}, pair{2, 0.8}, pair{3, 0.1})
	l2 := list(pair{1, 0.9}, pair{2, 0.8}, pair{3, 0.1})
	asm := NewAssembler([]Stream{l1, l2}, 2)
	asm.Step()
	snap := asm.Provisional()
	asm.Run(nil)
	finals := asm.Finals()
	if len(finals) != 2 || len(snap) != 1 {
		t.Fatalf("finals %+v, snapshot %+v", finals, snap)
	}
	want1 := slices.Clone(finals[1].Parts)
	wantSnap := slices.Clone(snap[0].Parts)
	_ = append(finals[0].Parts, entry(99, 0.5))
	if !reflect.DeepEqual(finals[1].Parts, want1) || !reflect.DeepEqual(snap[0].Parts, wantSnap) {
		t.Fatalf("append to finals[0].Parts leaked: finals[1] %+v, snapshot %+v", finals[1].Parts, snap[0].Parts)
	}
}

// TestAssemblerBounds checks the L_k/U_max view: the gap closes and the
// terminal condition L_k >= U_max holds when termination was by bounds.
func TestAssemblerBounds(t *testing.T) {
	l1 := list(pair{1, 0.9}, pair{2, 0.8}, pair{3, 0.7}, pair{4, 0.2})
	l2 := list(pair{2, 0.8}, pair{3, 0.75}, pair{1, 0.5}, pair{4, 0.1})
	asm := NewAssembler([]Stream{l1, l2}, 2)
	for asm.Step() {
	}
	lk, umax := asm.Bounds()
	if lk < umax {
		t.Errorf("terminated with L_k=%v < U_max=%v without exhaustion = %v",
			lk, umax, asm.Stats().Exhausted)
	}
	if len(asm.Finals()) != 2 {
		t.Fatalf("finals = %+v, want 2", asm.Finals())
	}
}

// TestAssemblerEdgeCases mirrors Assemble's degenerate inputs.
func TestAssemblerEdgeCases(t *testing.T) {
	if a := NewAssembler(nil, 3); !a.Done() || a.Step() || a.Finals() != nil {
		t.Error("no streams should be born terminated with nil finals")
	}
	if a := NewAssembler([]Stream{list()}, 0); !a.Done() || a.Step() {
		t.Error("k=0 should be born terminated")
	}
	// Provisional on a virgin assembler is empty, not nil-panic.
	if got := NewAssembler(nil, 3).Provisional(); len(got) != 0 {
		t.Errorf("virgin provisional = %v", got)
	}
}
