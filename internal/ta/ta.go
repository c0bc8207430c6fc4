// Package ta implements the threshold-algorithm-based final match assembly
// of Section V-C (Fagin et al.'s TA, in the no-random-access flavour):
// sub-query match streams are consumed in non-increasing pss order, matches
// sharing the same pivot node match u^p join into final matches, and per-
// candidate lower/upper score bounds (Eq. 8-11) let the assembly stop long
// before exhausting the streams (Theorem 3: stop when L_k >= U_max).
package ta

import (
	"container/heap"

	"semkg/internal/astar"
	"semkg/internal/kg"
)

// Stream yields sub-query matches in non-increasing pss order.
// *astar.Searcher implements it via its Next method. The assembly skips a match at a pivot it has already seen in the
// stream, or — once some stream has run dry — at a pivot that can no
// longer complete; a Stream that also implements Restricter is told which
// pivots those are, so it need not produce them.
type Stream interface {
	Next() (astar.Match, bool)
}

// Restricter is optionally implemented by a Stream that can stop
// producing matches the assembly would skip. After Restrict, Next yields
// exactly the subsequence of its unrestricted output whose end nodes want
// accepts at read time; want's answer for a node only ever turns from
// true to false. want reads the assembly's state, so it must only be
// called from inside Next, on the assembly's goroutine. A stream read by
// others besides this assembly (a shared enumeration) must not implement
// it.
type Restricter interface {
	Restrict(want func(kg.NodeID) bool)
}

// SliceStream adapts a pre-collected, pss-sorted match slice (Algorithm
// 3's eager M̂_i sets) to the Stream interface.
type SliceStream struct {
	Matches []astar.Match
	pos     int
}

// Next returns the next match in the slice.
func (s *SliceStream) Next() (astar.Match, bool) {
	if s.pos >= len(s.Matches) {
		return astar.Match{}, false
	}
	m := s.Matches[s.pos]
	s.pos++
	return m, true
}

// Final is an assembled final match for the whole query graph: one
// sub-query match per stream, all containing the same pivot node match.
type Final struct {
	Pivot kg.NodeID
	// Score is the match score S_m(u^p): the sum of the parts' pss (Eq. 2).
	Score float64
	// Parts holds the joined sub-query matches, indexed by stream.
	Parts []astar.Match
}

// Stats reports assembly effort, for the early-termination experiments.
type Stats struct {
	// Accesses counts sorted accesses across all streams.
	Accesses int
	// Rounds counts round-robin passes.
	Rounds int
	// Exhausted reports whether every stream ran dry before termination.
	Exhausted bool
}

// candidate tracks the NRA bookkeeping for one pivot node match. It lives
// in Assembler.cands while it can still complete: a candidate not seen in
// a stream that ran dry is dropped.
type candidate struct {
	pivot kg.NodeID
	seen  []bool
	parts []astar.Match
	lower float64
	nSeen int
	// key is the Eq. 11 upper bound last computed for the candidate; slot
	// is its index in the bound heap, or inTop / outside.
	key  float64
	slot int
}

const (
	inTop   = -1 // one of the k best complete candidates
	outside = -2 // tombstone: upper bound fell below L_k
)

// Assembler is the incremental form of the TA assembly: each Step consumes
// one round-robin round of sorted accesses and re-evaluates the Theorem 3
// termination condition, so a caller can observe the provisional top-k and
// its lower/upper bounds between rounds (the anytime view that the
// streaming API exposes as events). Both sides of L_k >= U_max are kept
// incrementally: top holds the k best complete candidates in rank order,
// and a lazy max-heap holds every other live candidate under a stale-high
// upper bound. Once a stream runs dry, only candidates already seen in it
// can complete: the rest are dropped, no new pivot is tracked, and the
// bounds cover what is left (DESIGN.md, "Incremental Theorem 3").
//
// An Assembler is not safe for concurrent use.
type Assembler struct {
	streams []Stream
	k       int
	psiCur  []float64 // pss of latest access per stream (Eq. 11's ψcur)
	alive   []bool
	closed  bool // some stream ran dry: cands is the whole candidate set
	cands   map[kg.NodeID]*candidate
	stats   Stats
	done    bool
	finals  []Final

	top     []*candidate // ≤ k complete candidates by (score desc, pivot asc)
	changes int          // changes to top so far
	heap    boundHeap    // non-top candidates by key, max first

	// Unused tail of the current slab chunk; candidates, seen flags and
	// parts are cut from it so a candidate costs no allocation of its own.
	free      []candidate
	freeSeen  []bool
	freeParts []astar.Match

	// Round bounds, computed lazily (boundsDirty) so that rounds nobody
	// observes before the top fills pay nothing for them.
	lk, umax    float64
	boundsDirty bool

	// expired reports a deadline cut (Expire); nil in the exact mode.
	expired func() bool
}

// NewAssembler prepares an assembly over the given sorted streams. With
// k <= 0 or no streams the assembler is born terminated with no finals,
// mirroring Assemble's edge cases.
func NewAssembler(streams []Stream, k int) *Assembler {
	a := &Assembler{streams: streams, k: k}
	if k <= 0 || len(streams) == 0 {
		a.done = true
		return a
	}
	n := len(streams)
	a.psiCur = make([]float64, n)
	a.alive = make([]bool, n)
	for i := range a.psiCur {
		a.psiCur[i] = 1 // pss is bounded by 1 before the first access
		a.alive[i] = true
	}
	a.cands = make(map[kg.NodeID]*candidate)
	return a
}

// upper is the Eq. 11 upper bound of a candidate: its known lower bound
// plus ψcur for every stream it has not appeared in yet.
func (a *Assembler) upper(c *candidate) float64 {
	u := c.lower
	for i := range a.streams {
		if !c.seen[i] {
			u += a.psiCur[i]
		}
	}
	return u
}

// Expire tells a stream cut short by a deadline from an exhausted one: when
// a stream yields no match and expired reports true, the assembly is cut —
// it terminates at once with the current top as its finals, instead of
// retiring the stream. Every such final is a complete candidate whose parts
// were each its pivot's first, and therefore best, match in a sorted
// stream, so its score is exact; ψcur is left as it was, so Bounds still
// bounds every candidate outside the top.
func (a *Assembler) Expire(expired func() bool) { a.expired = expired }

// Step runs one round-robin round of sorted accesses and the termination
// check. It returns false once the assembly has terminated (Theorem 3
// satisfied, every stream exhausted, a stream dry with the top short of k
// and no candidate left that could complete, or cut; see Expire); Finals
// then holds the result.
func (a *Assembler) Step() bool {
	if a.done {
		return false
	}
	a.stats.Rounds++
	anyAlive := false
	for i, st := range a.streams {
		if !a.alive[i] {
			continue
		}
		m, ok := a.next(i, st)
		a.stats.Accesses++
		if !ok {
			if a.expired != nil && a.expired() {
				a.finish()
				return false
			}
			a.retire(i)
			continue
		}
		anyAlive = true
		a.psiCur[i] = m.PSS
		p := m.End()
		c := a.cands[p]
		if c == nil {
			c = a.newCandidate(p)
			a.cands[p] = c
		}
		// First (= best) match for this pivot in stream i.
		c.seen[i] = true
		c.parts[i] = m
		c.lower += m.PSS
		c.nSeen++
		if c.nSeen == len(a.streams) {
			a.complete(c)
		} else {
			a.file(c, a.upper(c))
		}
	}
	a.boundsDirty = true

	if !anyAlive {
		a.stats.Exhausted = true
		a.finish()
		return false
	}
	if len(a.top) == a.k {
		if lk, umax := a.bounds(); lk >= umax {
			a.finish()
			return false
		}
	} else if a.closed && len(a.heap) == 0 {
		// Short of k, every candidate outside the top dropped: nothing
		// left in the streams can complete.
		a.finish()
		return false
	}
	return true
}

// next returns stream i's next match that the assembly can use. A match at
// a pivot already seen in i, or at one that can no longer complete, is
// skipped: it is not an access and does not move ψcur.
func (a *Assembler) next(i int, st Stream) (astar.Match, bool) {
	for {
		m, ok := st.Next()
		if !ok || a.wants(i, m.End()) {
			return m, ok
		}
	}
}

// wants reports whether a match at pivot p in stream i would count: p is
// not yet seen in i, and it is a candidate or — while no stream is dry —
// may become one.
func (a *Assembler) wants(i int, p kg.NodeID) bool {
	if c := a.cands[p]; c != nil {
		return !c.seen[i]
	}
	return !a.closed
}

// retire records that stream i ran dry. A candidate not seen in i can
// never complete, so it leaves the heap and the candidate set; U_max no
// longer counts it, nor the virtual never-seen candidate. On the first dry
// stream every live stream that implements Restricter is told to skip what
// next would.
func (a *Assembler) retire(i int) {
	a.alive[i] = false
	a.psiCur[i] = 0
	for p, c := range a.cands {
		if !c.seen[i] {
			if c.slot >= 0 {
				heap.Remove(&a.heap, c.slot)
			}
			delete(a.cands, p)
		}
	}
	if a.closed {
		return
	}
	a.closed = true
	for j, st := range a.streams {
		if r, ok := st.(Restricter); ok && a.alive[j] {
			r.Restrict(func(p kg.NodeID) bool { return a.wants(j, p) })
		}
	}
}

// newCandidate cuts a candidate and its per-stream slices from the slab,
// growing it by a chunk when empty. Full slice expressions keep an append
// to one final's Parts from writing into its neighbour's.
func (a *Assembler) newCandidate(p kg.NodeID) *candidate {
	n := len(a.streams)
	if len(a.free) == 0 {
		size := min(max(len(a.cands), 16), 256)
		a.free = make([]candidate, size)
		a.freeSeen = make([]bool, size*n)
		a.freeParts = make([]astar.Match, size*n)
	}
	c := &a.free[0]
	a.free = a.free[1:]
	c.pivot, c.slot = p, outside
	c.seen, a.freeSeen = a.freeSeen[:n:n], a.freeSeen[n:]
	c.parts, a.freeParts = a.freeParts[:n:n], a.freeParts[n:]
	return c
}

// ranksBefore is the final ranking order: score desc, pivot asc.
func ranksBefore(x, y *candidate) bool {
	return x.lower > y.lower || x.lower == y.lower && x.pivot < y.pivot
}

// complete offers a candidate that has just been seen in every stream to
// the top. Its score is final, so the top only changes here; whichever of
// it and the old k-th loses goes to the heap with upper = lower.
func (a *Assembler) complete(c *candidate) {
	var out *candidate
	if len(a.top) == a.k {
		if out = a.top[a.k-1]; !ranksBefore(c, out) {
			a.file(c, c.lower)
			return
		}
		a.top = a.top[:a.k-1]
	}
	if c.slot >= 0 {
		heap.Remove(&a.heap, c.slot)
	}
	i := len(a.top)
	a.top = append(a.top, c)
	for ; i > 0 && ranksBefore(c, a.top[i-1]); i-- {
		a.top[i] = a.top[i-1]
	}
	a.top[i] = c
	c.slot = inTop
	a.changes++
	if out != nil {
		a.file(out, out.lower) // against the new, higher L_k
	}
}

// file keys a non-top candidate by its upper bound u: in the heap, or as a
// tombstone once the top is full and u < L_k. Upper bounds only fall and
// L_k only rises, so a tombstone cannot reach U_max again; it keeps its
// bookkeeping only to stay exact (a later completion is offered to the
// top, a rounding-level rise re-files it, and the terminal Bounds scans it).
func (a *Assembler) file(c *candidate, u float64) {
	c.key = u
	if len(a.top) == a.k && u < a.top[a.k-1].lower {
		if c.slot >= 0 {
			heap.Remove(&a.heap, c.slot)
		}
		c.slot = outside
		return
	}
	if c.slot >= 0 {
		heap.Fix(&a.heap, c.slot)
	} else {
		heap.Push(&a.heap, c)
	}
}

// heapMax returns the exact best upper bound in the heap (0 when empty).
// Keys go stale only as ψcur falls, which can only lower a bound (sightings
// re-key exactly), so a stale key over-estimates: refreshing the head until
// its key is current yields the maximum, evicting whatever falls below L_k.
func (a *Assembler) heapMax() float64 {
	for len(a.heap) > 0 {
		c := a.heap[0]
		u := a.upper(c)
		if u == c.key {
			return u
		}
		a.file(c, u)
	}
	return 0
}

// finish terminates the assembly with the current top as the finals.
func (a *Assembler) finish() {
	a.finals = finalize(a.top)
	a.done = true
	a.boundsDirty = true
}

// bounds computes (and caches per round) L_k — the k-th best complete
// score, 0 until k complete candidates exist — and U_max — the best
// Eq. 11 upper bound among the candidates outside the current top that can
// still complete, including, while no stream is dry, the virtual
// never-seen candidate whose upper bound is Σ ψcur. Before termination
// tombstones cannot hold the maximum (it exceeds L_k); after it they can,
// so the terminal round scans every candidate once.
func (a *Assembler) bounds() (float64, float64) {
	if !a.boundsDirty {
		return a.lk, a.umax
	}
	lk := 0.0
	if len(a.top) == a.k {
		lk = a.top[a.k-1].lower
	}
	umax := 0.0
	if !a.closed {
		for i := range a.psiCur {
			umax += a.psiCur[i] // virtual unseen candidate
		}
	}
	if a.done {
		for _, c := range a.cands {
			if c.slot == inTop {
				continue
			}
			if u := a.upper(c); u > umax {
				umax = u
			}
		}
	} else if u := a.heapMax(); u > umax {
		umax = u
	}
	a.lk, a.umax = lk, umax
	a.boundsDirty = false
	return lk, umax
}

// boundHeap is a max-heap of candidates by key that tracks each one's
// slot, so a re-keyed or completed candidate is fixed or removed in place.
type boundHeap []*candidate

func (h boundHeap) Len() int           { return len(h) }
func (h boundHeap) Less(i, j int) bool { return h[i].key > h[j].key }
func (h boundHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].slot, h[j].slot = i, j
}
func (h *boundHeap) Push(x any) {
	c := x.(*candidate)
	c.slot = len(*h)
	*h = append(*h, c)
}
func (h *boundHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return c
}

// Run drives the assembler to completion and returns the finals. onRound,
// when non-nil, is invoked after every completed round — including the
// terminal one — so a caller can observe Provisional/Bounds between
// rounds.
func (a *Assembler) Run(onRound func(round int)) []Final {
	prev := a.stats.Rounds
	for {
		more := a.Step()
		if r := a.stats.Rounds; r > prev {
			prev = r
			if onRound != nil {
				onRound(r)
			}
		}
		if !more {
			return a.finals
		}
	}
}

// Done reports whether the assembly has terminated.
func (a *Assembler) Done() bool { return a.done }

// Finals returns the assembled top-k once Done; nil before termination.
func (a *Assembler) Finals() []Final { return a.finals }

// Stats returns the effort counters accumulated so far.
func (a *Assembler) Stats() Stats { return a.stats }

// Bounds returns the current L_k (the k-th best complete score; 0 until k
// complete candidates exist) and U_max (the best upper bound among
// non-top candidates that can still complete, including the virtual
// never-seen one while no stream is dry). Valid after
// the first Step; computed lazily, so only callers observing the bounds
// pay for them.
func (a *Assembler) Bounds() (lk, umax float64) { return a.bounds() }

// Changes counts the changes to the provisional top-k so far: Provisional
// returns a different ranking exactly when Changes has grown, so an
// observer need not snapshot rounds that changed nothing.
func (a *Assembler) Changes() int { return a.changes }

// Provisional returns a snapshot of the current best complete candidates
// (at most k, in final rank order). The parts slices are copied, so the
// snapshot stays valid while the assembly continues.
func (a *Assembler) Provisional() []Final {
	out := make([]Final, len(a.top))
	for i, c := range a.top {
		parts := make([]astar.Match, len(c.parts))
		copy(parts, c.parts)
		out[i] = Final{Pivot: c.pivot, Score: c.lower, Parts: parts}
	}
	return out
}

// Assemble runs the TA-based assembly: it consumes the streams in
// round-robin sorted access, joins matches at their pivot (end) node, and
// returns the top-k final matches by score together with effort statistics.
// Only complete candidates — pivots matched in every stream — are returned;
// a query answer must cover all sub-query graphs.
//
// The streams must be in non-increasing pss order; pulling more matches may
// resume an underlying A* search (the paper's "repeat the A* semantic
// search until sufficient final matches are returned").
func Assemble(streams []Stream, k int) ([]Final, Stats) {
	a := NewAssembler(streams, k)
	finals := a.Run(nil)
	return finals, a.Stats()
}

func finalize(cs []*candidate) []Final {
	out := make([]Final, len(cs))
	for i, c := range cs {
		out[i] = Final{Pivot: c.pivot, Score: c.lower, Parts: c.parts}
	}
	return out
}
