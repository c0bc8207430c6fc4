// Package oracle is the repository's one reference implementation: a
// deliberately naive, exhaustive top-k search that the tests judge the
// engine against. It shares no code with what it judges — it imports
// only kg, embed, query and strutil; synonym expansion and predicate
// resolution arrive as plain inputs — and only _test.go files import it
// (imports_test.go pins both). Everything here is a linear scan, a
// depth-first walk or a sort; nothing is indexed, cached or cut short.
// See DESIGN.md, "What the tests compare against".
package oracle

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/strutil"
)

// Epsilon is the comparison rule's score tolerance: an answer's score is
// a float sum whose order the assembly does not fix.
const Epsilon = 1e-9

// match is φ over one vocabulary (node or type names) by linear scan, per
// Definition 3: every id named exactly by one of terms — the query's term
// as written, then its library synonyms — in term order; when there is
// none, every id whose name abbreviates terms[0] or is abbreviated by it,
// in id order, plus (normEqual) names equal to a term up to case and
// separators.
func match[ID ~int32](n int, nameOf func(ID) string, terms []string, normEqual bool) []ID {
	if len(terms) == 0 || terms[0] == "" {
		return nil
	}
	var out []ID
	for _, t := range terms {
		for i := ID(0); int(i) < n; i++ {
			if nameOf(i) == t && !slices.Contains(out, i) {
				out = append(out, i)
			}
		}
	}
	if len(out) > 0 {
		return out
	}
	for i := ID(0); int(i) < n; i++ {
		name := nameOf(i)
		ok := strutil.IsAbbreviationOf(terms[0], name) || strutil.IsAbbreviationOf(name, terms[0])
		for _, t := range terms {
			ok = ok || normEqual && strutil.Normalize(t) == strutil.Normalize(name)
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// Names returns the nodes a query name — terms[0], then its synonyms — matches.
func Names(g *kg.Graph, terms []string) []kg.NodeID {
	return match(g.NumNodes(), g.NodeName, terms, false)
}

// Types returns the types a query type name matches, likewise.
func Types(g *kg.Graph, terms []string) []kg.TypeID {
	return match(g.NumTypes(), g.TypeName, terms, true)
}

// Phi is φ(v) for a query node: a specific node (name != "") matches by
// name, kept when its type matches typeName, is unknown, or typeName is
// empty; a target node matches every node of a matching type. expand
// lists a term's synonyms, the term itself first; nil means none.
func Phi(g *kg.Graph, expand func(string) []string, name, typeName string) []kg.NodeID {
	if expand == nil {
		expand = func(s string) []string { return []string{s} }
	}
	types := Types(g, expand(typeName))
	var out []kg.NodeID
	for u := kg.NodeID(0); name == "" && int(u) < g.NumNodes(); u++ {
		if slices.Contains(types, g.NodeType(u)) {
			out = append(out, u)
		}
	}
	for _, u := range Names(g, expand(name)) {
		if typeName == "" || g.NodeType(u) == kg.NoType || slices.Contains(types, g.NodeType(u)) {
			out = append(out, u)
		}
	}
	return out
}

// Weight is the semantic weight of graph predicate p under a query edge
// resolved to qp: Eq. 5's cosine as (cos+1)/2, floored at 1e-6.
func Weight(space *embed.Space, qp, p kg.PredID) float64 {
	return math.Min(1, math.Max(1e-6, (space.Similarity(int(qp), int(p))+1)/2))
}

// Sub is one path-shaped sub-query as plain inputs: φ of its anchor, φ of
// the node closing each query edge (segment), and each segment's weights.
type Sub struct {
	Anchors []kg.NodeID
	Ends    [][]kg.NodeID
	Weight  func(seg int, p kg.PredID) float64
}

// Match is a sub-query match: a simple path from an anchor to an entity of
// the last end set, with its pss ψ = (∏w)^(1/n) over its n edges (Eq. 6).
type Match struct {
	Nodes []kg.NodeID
	Edges []kg.EdgeID
	PSS   float64
}

// Matches walks every simple path of at most maxHops edges from every
// anchor, in either edge direction. Arriving at a node of the current
// segment's end set closes the segment; closing the last completes a
// match, never extended and kept if ψ ≥ τ — the best per end entity.
func (s Sub) Matches(g *kg.Graph, tau float64, maxHops int) map[kg.NodeID]Match {
	best := make(map[kg.NodeID]Match)
	var nodes []kg.NodeID
	var edges []kg.EdgeID
	var walk func(seg int, product float64)
	walk = func(seg int, product float64) {
		if len(edges) == maxHops {
			return
		}
		for _, h := range g.Neighbors(nodes[len(nodes)-1]) {
			if slices.Contains(nodes, h.Neighbor) {
				continue
			}
			nodes, edges = append(nodes, h.Neighbor), append(edges, h.Edge)
			p, next := product*s.Weight(seg, h.Pred), seg
			if slices.Contains(s.Ends[seg], h.Neighbor) {
				next++
			}
			if next < len(s.Ends) {
				walk(next, p)
			} else if pss := math.Pow(p, 1/float64(len(edges))); pss >= tau {
				if old, ok := best[h.Neighbor]; !ok || pss > old.PSS {
					best[h.Neighbor] = Match{slices.Clone(nodes), slices.Clone(edges), pss}
				}
			}
			nodes, edges = nodes[:len(nodes)-1], edges[:len(edges)-1]
		}
	}
	for _, a := range s.Anchors {
		nodes = append(nodes[:0], a)
		walk(0, 1)
	}
	return best
}

// PSS re-derives ψ for a claimed match and rejects what is not one: a
// simple path from an anchor, preds[i] labelling a graph edge between
// nodes[i] and nodes[i+1] (either direction), every segment closing at
// the first node of its end set and the last node closing the last.
func (s Sub) PSS(g *kg.Graph, nodes []kg.NodeID, preds []kg.PredID) (float64, error) {
	if len(nodes) < 2 || len(preds) != len(nodes)-1 || !slices.Contains(s.Anchors, nodes[0]) {
		return 0, fmt.Errorf("%d nodes joined by %d edges is not a path from an anchor", len(nodes), len(preds))
	}
	seg, product := 0, 1.0
	for i, p := range preds {
		u, v := nodes[i], nodes[i+1]
		if seg == len(s.Ends) {
			return 0, fmt.Errorf("path runs on past its match at %q", g.NodeName(u))
		}
		if slices.Contains(nodes[:i+1], v) {
			return 0, fmt.Errorf("path revisits %q", g.NodeName(v))
		}
		if !slices.ContainsFunc(g.Neighbors(u), func(h kg.Half) bool { return h.Neighbor == v && h.Pred == p }) {
			return 0, fmt.Errorf("no %q edge between %q and %q in the graph", g.PredName(p), g.NodeName(u), g.NodeName(v))
		}
		product *= s.Weight(seg, p)
		if slices.Contains(s.Ends[seg], v) {
			seg++
		}
	}
	if seg != len(s.Ends) {
		return 0, fmt.Errorf("path ends at %q with %d of %d query edges matched", g.NodeName(nodes[len(nodes)-1]), seg, len(s.Ends))
	}
	return math.Pow(product, 1/float64(len(preds))), nil
}

// Scored is one pivot entity with its match score (Eq. 2).
type Scored struct {
	Pivot kg.NodeID
	Score float64
}

// Join assembles final matches: the entities every sub-query reaches, by
// the sum of their best pss per sub-query, then by ascending pivot id.
func Join(subs []map[kg.NodeID]Match) []Scored {
	var all []Scored
	for pivot := range subs[0] {
		sc, reached := Scored{Pivot: pivot}, 0
		for _, ms := range subs {
			if m, ok := ms[pivot]; ok {
				sc.Score += m.PSS
				reached++
			}
		}
		if reached == len(subs) {
			all = append(all, sc)
		}
	}
	slices.SortFunc(all, func(a, b Scored) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Pivot, b.Pivot))
	})
	return all
}

// Compare is the comparison rule between a top-k under test and the full
// ranking Join produced. Always: at most k answers, no entity twice, none
// the oracle does not rank. An exact result must also have
// min(k, len(all)) answers, the oracle's score vector within Epsilon,
// each entity at its own oracle score, and every entity the oracle scores
// above the k-th score — who fills a tie there is not a correctness
// property. An approximate (time-bounded, cut short) result may miss
// entities, but every answer must carry its oracle score and the answers
// must be in rank order: a cut returns complete candidates, each at its
// exact score.
func Compare(got, all []Scored, k int, approximate bool) error {
	want := all[:min(k, len(all))]
	if len(got) > k || !approximate && len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d (k = %d)", len(got), len(want), k)
	}
	seen := make(map[kg.NodeID]bool)
	for i, a := range got {
		at := slices.IndexFunc(all, func(s Scored) bool { return s.Pivot == a.Pivot })
		if at < 0 || seen[a.Pivot] {
			return fmt.Errorf("rank %d: entity %d is repeated or not a final match", i, a.Pivot)
		}
		seen[a.Pivot] = true
		if math.Abs(a.Score-all[at].Score) > Epsilon {
			return fmt.Errorf("rank %d: entity %d scores %v, the oracle says %v", i, a.Pivot, a.Score, all[at].Score)
		}
		if i > 0 && a.Score > got[i-1].Score+Epsilon {
			return fmt.Errorf("rank %d: score %v above rank %d's %v", i, a.Score, i-1, got[i-1].Score)
		}
		if !approximate && math.Abs(a.Score-want[i].Score) > Epsilon {
			return fmt.Errorf("rank %d scores %v, the oracle's rank %d scores %v", i, a.Score, i, want[i].Score)
		}
	}
	for _, w := range want {
		if kth := want[len(want)-1].Score; !approximate && w.Score > kth+Epsilon && !seen[w.Pivot] {
			return fmt.Errorf("entity %d (score %v) ranks above the k-th score %v but is missing", w.Pivot, w.Score, kth)
		}
	}
	return nil
}

// World is what a search runs over, as the oracle reads it: the graph,
// its predicate space, the library's synonym expansion (nil: none) and
// the space predicate a query edge's predicate name resolves to.
type World struct {
	G       *kg.Graph
	Space   *embed.Space
	Expand  func(term string) []string
	Resolve func(predicate string) kg.PredID
}

// Ranking is the oracle's answer to one query: every final match, best
// first, with the sub-queries and per-sub-query matches behind it.
type Ranking struct {
	All     []Scored
	Subs    []Sub
	Matches []map[kg.NodeID]Match
	g       *kg.Graph
	k       int
}

// Rank answers q exhaustively under the options that define its answer
// (defaults applied). The decomposition is the engine's own: the pivot is
// a cost heuristic, not a correctness property, so none is chosen here.
func (w World) Rank(q *query.Graph, d *query.Decomposition, tau float64, maxHops, k int) *Ranking {
	r := &Ranking{g: w.G, k: k}
	phi := func(id string) []kg.NodeID {
		n, _ := q.NodeByID(id)
		return Phi(w.G, w.Expand, n.Name, n.Type)
	}
	for _, sq := range d.Subs {
		sub := Sub{Anchors: phi(sq.NodeIDs[0])}
		preds := make([]kg.PredID, len(sq.Edges))
		for i, e := range sq.Edges {
			sub.Ends = append(sub.Ends, phi(sq.NodeIDs[i+1]))
			preds[i] = w.Resolve(e.Predicate)
		}
		sub.Weight = func(seg int, p kg.PredID) float64 { return Weight(w.Space, preds[seg], p) }
		r.Subs = append(r.Subs, sub)
		r.Matches = append(r.Matches, sub.Matches(w.G, tau, maxHops))
	}
	r.All = Join(r.Matches)
	return r
}

// Answer is an engine answer in plain form: pivot entity, score, and per
// sub-query a Part — its pss and path, each Step a named, directed edge.
type (
	Answer struct {
		Pivot string
		Score float64
		Parts []Part
	}
	Part struct {
		PSS   float64
		Steps []Step
	}
	Step struct{ FromName, Predicate, ToName string }
)

// Check judges an engine result: every answer must be what it claims —
// per sub-query a real match ending at the pivot whose re-derived pss is
// the reported one, the parts summing to the score — and the answers
// together must satisfy Compare.
func (r *Ranking) Check(answers []Answer, approximate bool) error {
	got := make([]Scored, len(answers))
	for i, a := range answers {
		pivot := r.g.NodeByName(a.Pivot)
		if pivot == kg.NoNode || len(a.Parts) != len(r.Subs) {
			return fmt.Errorf("answer %q: unknown entity, or %d parts for %d sub-queries", a.Pivot, len(a.Parts), len(r.Subs))
		}
		sum := 0.0
		for pi, part := range a.Parts {
			// Steps read in edge, not path, direction: thread them back from the pivot.
			nodes, preds := []kg.NodeID{pivot}, make([]kg.PredID, len(part.Steps))
			for si := len(part.Steps) - 1; si >= 0; si-- {
				st := part.Steps[si]
				from, to, p := r.g.NodeByName(st.FromName), r.g.NodeByName(st.ToName), r.g.PredByName(st.Predicate)
				if from == kg.NoNode || to == kg.NoNode || !slices.ContainsFunc(r.g.Neighbors(from),
					func(h kg.Half) bool { return h.Out && h.Neighbor == to && h.Pred == p }) {
					return fmt.Errorf("answer %q part %d: no edge %s -%s-> %s in the graph", a.Pivot, pi, st.FromName, st.Predicate, st.ToName)
				}
				if from == nodes[0] {
					from = to // the path leaves this edge by its other end
				}
				nodes, preds[si] = slices.Insert(nodes, 0, from), p
			}
			pss, err := r.Subs[pi].PSS(r.g, nodes, preds)
			if err != nil {
				return fmt.Errorf("answer %q part %d: %w", a.Pivot, pi, err)
			}
			if math.Abs(pss-part.PSS) > Epsilon {
				return fmt.Errorf("answer %q part %d: reported pss %v, its path gives %v", a.Pivot, pi, part.PSS, pss)
			}
			sum += part.PSS
		}
		if math.Abs(sum-a.Score) > Epsilon {
			return fmt.Errorf("answer %q: score %v, its parts sum to %v", a.Pivot, a.Score, sum)
		}
		got[i] = Scored{pivot, a.Score}
	}
	return Compare(got, r.All, r.k, approximate)
}
