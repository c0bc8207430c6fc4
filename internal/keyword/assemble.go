package keyword

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"semkg/internal/kg"
	"semkg/internal/query"
)

// Candidate is one assembled, validated, decomposable query graph with its
// assembly score and the factors behind it.
type Candidate struct {
	// Query is the well-formed query doc ready for the Compile/SearchPlan
	// path; Focus is the ID of its focus target node ("t0").
	Query *query.Graph
	Focus string
	// Score is the assembly score: Quality × Coverage² × Structure ×
	// Selectivity (see DESIGN.md, "Query-graph assembly").
	Score float64
	// Quality is the product of the match qualities of the keyword
	// interpretations the candidate consumed.
	Quality float64
	// Coverage is the fraction of input keywords the candidate consumed.
	Coverage float64
	// Structure is the geometric mean of per-edge evidence factors: how
	// strongly the graph supports each assembled connection.
	Structure float64
	// Selectivity rewards candidates anchored on rare elements.
	Selectivity float64
	// Explain is a one-line human-readable account of the assembly.
	Explain string
	// Key is Query's canonical encoding (query.Graph.AppendKey), for
	// dedup and deterministic tie-break.
	Key string
}

// Assembly is the outcome of assembling one keyword input: the tokens
// with their interpretations, the keywords nothing matched, and the
// scored candidate query graphs (best first).
type Assembly struct {
	Input      string
	Tokens     []Token
	Unmatched  []string
	Candidates []Candidate
	Elapsed    time.Duration
}

// Assemble tokenizes input against g, matches every keyword, enumerates
// connection structures joining the matches, and returns the scored,
// deduplicated candidates best-first. Every candidate Validates and
// decomposes; assembly never runs a search.
func Assemble(g *kg.Graph, input string) *Assembly {
	start := time.Now()
	asm := &Assembly{Input: input, Tokens: Tokenize(g, input)}
	var matched []int
	for i := range asm.Tokens {
		asm.Tokens[i].Interps = matchKeyword(g, asm.Tokens[i].Norm, maxInterps)
		if len(asm.Tokens[i].Interps) > 0 {
			matched = append(matched, i)
		} else {
			asm.Unmatched = append(asm.Unmatched, asm.Tokens[i].Raw)
		}
	}
	if len(matched) == 0 || g.NumPredicates() == 0 {
		asm.Elapsed = time.Since(start)
		return asm
	}

	// Enumerate interpretation combinations as a mixed-radix counter over
	// the matched tokens (deterministic order; capped).
	combo := make([]Interp, len(matched))
	idx := make([]int, len(matched))
	byKey := make(map[string]int) // canonical key -> index in cands
	var cands []Candidate
	for tried := 0; tried < maxCombos; tried++ {
		for j, ti := range matched {
			combo[j] = asm.Tokens[ti].Interps[idx[j]]
		}
		for _, c := range buildCandidates(g, combo, len(asm.Tokens)) {
			if prev, ok := byKey[c.Key]; ok {
				if c.Score > cands[prev].Score {
					cands[prev] = c
				}
				continue
			}
			byKey[c.Key] = len(cands)
			cands = append(cands, c)
		}
		// Advance the counter; stop when it wraps.
		j := len(matched) - 1
		for ; j >= 0; j-- {
			idx[j]++
			if idx[j] < len(asm.Tokens[matched[j]].Interps) {
				break
			}
			idx[j] = 0
		}
		if j < 0 {
			break
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].Key < cands[j].Key
	})
	if len(cands) > maxEnumerated {
		cands = cands[:maxEnumerated]
	}
	asm.Candidates = cands
	asm.Elapsed = time.Since(start)
	return asm
}

// edgeChoice is one way to attach an element to the focus target: a
// direct edge, or (mid != NoType) a two-hop path through a typed
// intermediate target node.
type edgeChoice struct {
	pred    kg.PredID
	out     bool // orientation majority: element → neighbor
	mid     kg.TypeID
	midPred kg.PredID
	midOut  bool // orientation majority: intermediate → focus
	ev      int  // supporting edge (pairs for two-hop) count in the graph
	usesKw  int  // index of the predicate keyword consumed, or -1
}

// buildCandidates assembles the candidates for one interpretation combo:
// a star around a focus target node (stated type keyword, or inferred
// from the entity neighborhoods), entity attachments of one or two hops,
// and extra type keywords as a chain of further target nodes.
func buildCandidates(g *kg.Graph, combo []Interp, totalTokens int) []Candidate {
	var entities, types, preds []Interp
	for _, it := range combo {
		switch it.Kind {
		case KindEntity:
			entities = append(entities, it)
		case KindType:
			types = append(types, it)
		case KindPredicate:
			preds = append(preds, it)
		}
	}
	if len(entities) == 0 {
		return nil
	}

	type focusOpt struct {
		t        kg.TypeID
		interp   *Interp // nil when inferred
		inferred bool
	}
	var focuses []focusOpt
	var chain []Interp
	if len(types) > 0 {
		focuses = []focusOpt{{t: types[0].Type, interp: &types[0]}}
		chain = types[1:]
	} else {
		for _, t := range inferTypes(g, entities) {
			focuses = append(focuses, focusOpt{t: t, inferred: true})
		}
	}

	var out []Candidate
	for _, f := range focuses {
		options := make([][]edgeChoice, len(entities))
		for i, e := range entities {
			options[i] = attachOptions(g, e, f.t, preds)
		}
		// Chain variants: extra type keywords as a path of target nodes
		// hanging off the focus, plus a chainless fallback (extra types
		// dropped, paying coverage) in case the chained graph does not
		// decompose.
		chains := [][]Interp{chain}
		if len(chain) > 0 {
			chains = append(chains, nil)
		}
		// Cross product of per-entity attachment options, capped.
		pick := make([]int, len(entities))
		for variants := 0; variants < 8; variants++ {
			choices := make([]edgeChoice, len(entities))
			used := make(map[int]bool)
			doubleKw := false
			for i := range entities {
				c := options[i][pick[i]]
				if c.usesKw >= 0 {
					if used[c.usesKw] {
						doubleKw = true
					}
					used[c.usesKw] = true
				}
				choices[i] = c
			}
			if !doubleKw {
				for _, ch := range chains {
					if c, ok := buildOne(g, entities, f.interp, f.t, f.inferred, ch, preds, choices, totalTokens); ok {
						out = append(out, c)
					}
				}
			}
			j := len(entities) - 1
			for ; j >= 0; j-- {
				pick[j]++
				if pick[j] < len(options[j]) {
					break
				}
				pick[j] = 0
			}
			if j < 0 {
				break
			}
		}
	}
	return out
}

// buildOne materializes and scores a single candidate. ok is false when
// the graph fails validation or decomposition.
func buildOne(g *kg.Graph, entities []Interp, focusInterp *Interp, focus kg.TypeID, inferred bool, chain []Interp, preds []Interp, choices []edgeChoice, totalTokens int) (Candidate, bool) {
	focusName := g.TypeName(focus)
	if focusName == "" {
		return Candidate{}, false
	}
	q := &query.Graph{Nodes: []query.Node{{ID: "t0", Type: focusName}}}
	var evs []float64
	var expl []string
	for i, e := range entities {
		eid := fmt.Sprintf("e%d", i+1)
		q.Nodes = append(q.Nodes, query.Node{ID: eid, Name: e.Name})
		c := choices[i]
		if c.mid == kg.NoType {
			q.Edges = append(q.Edges, orient(eid, "t0", g.PredName(c.pred), c.out))
			evs = append(evs, evFactor(c.ev))
			expl = append(expl, fmt.Sprintf("%s -[%s]- ?%s (ev %d)", e.Name, g.PredName(c.pred), focusName, c.ev))
		} else {
			mid := fmt.Sprintf("m%d", i+1)
			q.Nodes = append(q.Nodes, query.Node{ID: mid, Type: g.TypeName(c.mid)})
			q.Edges = append(q.Edges, orient(eid, mid, g.PredName(c.pred), c.out))
			q.Edges = append(q.Edges, orient(mid, "t0", g.PredName(c.midPred), c.midOut))
			// One evidence observation supports both hops; the extra hop
			// pays a mild discount so direct attachments win ties.
			evs = append(evs, 0.9*evFactor(c.ev))
			expl = append(expl, fmt.Sprintf("%s -[%s]- ?%s -[%s]- ?%s (ev %d)", e.Name, g.PredName(c.pred), g.TypeName(c.mid), g.PredName(c.midPred), focusName, c.ev))
		}
	}
	prev, prevType := "t0", focus
	for i, t := range chain {
		cid := fmt.Sprintf("c%d", i+1)
		q.Nodes = append(q.Nodes, query.Node{ID: cid, Type: t.Name})
		link := typeLink(g, prevType, t.Type)
		q.Edges = append(q.Edges, orient(prev, cid, g.PredName(link.pred), link.out))
		evs = append(evs, evFactor(link.ev))
		expl = append(expl, fmt.Sprintf("?%s -[%s]- ?%s (ev %d)", g.TypeName(prevType), g.PredName(link.pred), t.Name, link.ev))
		prev, prevType = cid, t.Type
	}
	if err := q.Validate(); err != nil {
		return Candidate{}, false
	}
	if _, err := query.Decompose(q, query.Options{}); err != nil {
		return Candidate{}, false
	}

	// Score.
	quality, sel := 1.0, 1.0
	usedTokens := len(entities) + len(chain)
	for _, e := range entities {
		quality *= e.Quality
		sel *= 1 / (1 + math.Log2(1+float64(e.Count)))
	}
	if focusInterp != nil {
		quality *= focusInterp.Quality
		usedTokens++
	}
	sel *= 1 / (1 + 0.25*math.Log2(1+float64(len(g.NodesOfType(focus)))))
	for _, t := range chain {
		quality *= t.Quality
		sel *= 1 / (1 + 0.25*math.Log2(1+float64(t.Count)))
	}
	for _, c := range choices {
		if c.usesKw >= 0 {
			quality *= preds[c.usesKw].Quality
			usedTokens++
		}
	}
	structure := geoMean(evs)
	coverage := float64(usedTokens) / float64(totalTokens)
	score := quality * coverage * coverage * structure * sel
	if inferred {
		score *= 0.9
	}
	focusLabel := "?" + focusName
	if inferred {
		focusLabel += " (inferred)"
	}
	return Candidate{
		Query:       q,
		Focus:       "t0",
		Score:       score,
		Quality:     quality,
		Coverage:    coverage,
		Structure:   structure,
		Selectivity: sel,
		Explain:     fmt.Sprintf("focus %s; %s", focusLabel, strings.Join(expl, "; ")),
		Key:         string(q.AppendKey(nil)),
	}, true
}

// orient renders a query edge between a and b in the evidence's majority
// direction (out = the edge leaves a).
func orient(a, b, pred string, out bool) query.Edge {
	if out {
		return query.Edge{From: a, To: b, Predicate: pred}
	}
	return query.Edge{From: b, To: a, Predicate: pred}
}

// evFactor maps a supporting-edge count to a (0,1) structure factor. Zero
// evidence (a connection the graph never exhibits) is strongly but not
// infinitely penalized — the user may know an edge the sampler missed.
func evFactor(ev int) float64 {
	if ev <= 0 {
		return 0.05
	}
	return float64(ev) / float64(ev+1)
}

func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	p := 1.0
	for _, x := range xs {
		p *= x
	}
	return math.Pow(p, 1/float64(len(xs)))
}

// inferTypes guesses focus types for a type-less keyword set: the most
// common neighbor types (one hop, then two if one hop finds nothing) of
// the matched entity nodes, best three, deterministically ordered.
func inferTypes(g *kg.Graph, entities []Interp) []kg.TypeID {
	counts := make(map[kg.TypeID]int)
	tally := func(hops int) {
		for _, e := range entities {
			nodes := e.Nodes
			if len(nodes) > evidenceNodes {
				nodes = nodes[:evidenceNodes]
			}
			for _, u := range nodes {
				for i, h := range g.Neighbors(u) {
					if i >= evidenceScan {
						break
					}
					if t := g.NodeType(h.Neighbor); t != kg.NoType {
						counts[t]++
					}
					if hops < 2 {
						continue
					}
					for j, h2 := range g.Neighbors(h.Neighbor) {
						if j >= evidenceInner {
							break
						}
						if t := g.NodeType(h2.Neighbor); t != kg.NoType {
							counts[t]++
						}
					}
				}
			}
		}
	}
	tally(1)
	if len(counts) == 0 {
		tally(2)
	}
	type tc struct {
		t kg.TypeID
		n int
	}
	ranked := make([]tc, 0, len(counts))
	for t, n := range counts {
		ranked = append(ranked, tc{t, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].t < ranked[j].t
	})
	if len(ranked) > 3 {
		ranked = ranked[:3]
	}
	out := make([]kg.TypeID, len(ranked))
	for i, r := range ranked {
		out[i] = r.t
	}
	return out
}

// evidenceInner caps the second-hop fan-out per first-hop neighbor during
// evidence gathering, bounding the two-hop scan independently of hub
// degrees.
const evidenceInner = 32

// attachOptions enumerates ways to connect one matched entity to the
// focus type: the best-evidenced direct edge, direct edges through the
// user's predicate keywords, the best-evidenced two-hop path through a
// typed intermediate, and a zero-evidence fallback so an option always
// exists. At most four options, deterministically ordered.
func attachOptions(g *kg.Graph, ent Interp, focus kg.TypeID, preds []Interp) []edgeChoice {
	nodes := ent.Nodes
	if len(nodes) > evidenceNodes {
		nodes = nodes[:evidenceNodes]
	}
	type dirEv struct{ ev, outVotes int }
	direct := make(map[kg.PredID]*dirEv)
	type hop2key struct {
		p1  kg.PredID
		mid kg.TypeID
		p2  kg.PredID
	}
	type hop2ev struct{ ev, outVotes1, outVotes2 int }
	twohop := make(map[hop2key]*hop2ev)
	for _, u := range nodes {
		for i, h := range g.Neighbors(u) {
			if i >= evidenceScan {
				break
			}
			if g.NodeType(h.Neighbor) == focus {
				d := direct[h.Pred]
				if d == nil {
					d = &dirEv{}
					direct[h.Pred] = d
				}
				d.ev++
				if h.Out {
					d.outVotes++
				}
			}
			mt := g.NodeType(h.Neighbor)
			if mt == kg.NoType || i >= evidenceInner {
				continue
			}
			for j, h2 := range g.Neighbors(h.Neighbor) {
				if j >= evidenceInner {
					break
				}
				if h2.Neighbor == u || g.NodeType(h2.Neighbor) != focus {
					continue
				}
				k := hop2key{p1: h.Pred, mid: mt, p2: h2.Pred}
				t := twohop[k]
				if t == nil {
					t = &hop2ev{}
					twohop[k] = t
				}
				t.ev++
				if h.Out {
					t.outVotes1++
				}
				if h2.Out {
					t.outVotes2++
				}
			}
		}
	}

	var out []edgeChoice
	add := func(c edgeChoice) {
		for _, have := range out {
			if have.pred == c.pred && have.mid == c.mid && have.midPred == c.midPred && have.usesKw == c.usesKw {
				return
			}
		}
		if len(out) < 4 {
			out = append(out, c)
		}
	}

	// Best direct, by evidence then predicate id.
	dkeys := make([]kg.PredID, 0, len(direct))
	for p := range direct {
		dkeys = append(dkeys, p)
	}
	sort.Slice(dkeys, func(i, j int) bool {
		a, b := dkeys[i], dkeys[j]
		if direct[a].ev != direct[b].ev {
			return direct[a].ev > direct[b].ev
		}
		return a < b
	})
	if len(dkeys) > 0 {
		p := dkeys[0]
		add(edgeChoice{pred: p, out: 2*direct[p].outVotes >= direct[p].ev, mid: kg.NoType, ev: direct[p].ev, usesKw: -1})
	}
	// Direct through each predicate keyword (evidenced or trusted).
	for ki, kw := range preds {
		if d, ok := direct[kw.Pred]; ok {
			add(edgeChoice{pred: kw.Pred, out: 2*d.outVotes >= d.ev, mid: kg.NoType, ev: d.ev, usesKw: ki})
		} else {
			add(edgeChoice{pred: kw.Pred, out: true, mid: kg.NoType, ev: 0, usesKw: ki})
		}
	}
	// Best two-hop, by evidence then key.
	hkeys := make([]hop2key, 0, len(twohop))
	for k := range twohop {
		hkeys = append(hkeys, k)
	}
	sort.Slice(hkeys, func(i, j int) bool {
		a, b := hkeys[i], hkeys[j]
		if twohop[a].ev != twohop[b].ev {
			return twohop[a].ev > twohop[b].ev
		}
		if a.p1 != b.p1 {
			return a.p1 < b.p1
		}
		if a.mid != b.mid {
			return a.mid < b.mid
		}
		return a.p2 < b.p2
	})
	if len(hkeys) > 0 {
		k := hkeys[0]
		t := twohop[k]
		add(edgeChoice{
			pred: k.p1, out: 2*t.outVotes1 >= t.ev,
			mid: k.mid, midPred: k.p2, midOut: 2*t.outVotes2 >= t.ev,
			ev: t.ev, usesKw: -1,
		})
	}
	// Zero-evidence fallback: the entity's most familiar predicate, so the
	// assembler always produces something executable.
	if len(out) == 0 && len(nodes) > 0 {
		if ps := g.NodePreds(nodes[0]); len(ps) > 0 {
			add(edgeChoice{pred: ps[0], out: true, mid: kg.NoType, ev: 0, usesKw: -1})
		}
	}
	if len(out) == 0 {
		add(edgeChoice{pred: 0, out: true, mid: kg.NoType, ev: 0, usesKw: -1})
	}
	return out
}

// typeLink picks the best-evidenced predicate connecting two types, for
// chain links between target nodes. Zero evidence falls back to the
// sampled nodes' most familiar predicate.
func typeLink(g *kg.Graph, from, to kg.TypeID) edgeChoice {
	nodes := g.NodesOfType(from)
	if len(nodes) > evidenceNodes {
		nodes = nodes[:evidenceNodes]
	}
	type dirEv struct{ ev, outVotes int }
	counts := make(map[kg.PredID]*dirEv)
	for _, u := range nodes {
		for i, h := range g.Neighbors(u) {
			if i >= evidenceScan {
				break
			}
			if g.NodeType(h.Neighbor) != to {
				continue
			}
			d := counts[h.Pred]
			if d == nil {
				d = &dirEv{}
				counts[h.Pred] = d
			}
			d.ev++
			if h.Out {
				d.outVotes++
			}
		}
	}
	keys := make([]kg.PredID, 0, len(counts))
	for p := range counts {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if counts[a].ev != counts[b].ev {
			return counts[a].ev > counts[b].ev
		}
		return a < b
	})
	if len(keys) > 0 {
		p := keys[0]
		return edgeChoice{pred: p, out: 2*counts[p].outVotes >= counts[p].ev, mid: kg.NoType, ev: counts[p].ev, usesKw: -1}
	}
	if len(nodes) > 0 {
		if ps := g.NodePreds(nodes[0]); len(ps) > 0 {
			return edgeChoice{pred: ps[0], out: true, mid: kg.NoType, usesKw: -1}
		}
	}
	return edgeChoice{pred: 0, out: true, mid: kg.NoType, usesKw: -1}
}
