// Package transform implements the node-matching relation φ: V_Q → V of
// Definition 3 and the synonym/abbreviation transformation library of
// Section IV-B (paper Table III). A query node matches a graph node when
// their types (and names, for specific nodes) are identical, synonyms, or
// abbreviations of one another.
//
// The paper builds its library from BabelNet; BabelNet is an external
// proprietary resource, so the reproduction ships the library as data:
// datasets generated by internal/datagen register their synonym and
// abbreviation tables here (see DESIGN.md, Substitutions). A heuristic
// abbreviation fallback based on initials/prefix detection covers terms
// absent from the library.
package transform

import (
	"sort"

	"semkg/internal/kg"
	"semkg/internal/strutil"
)

// Library is a synonym and abbreviation dictionary over type and entity
// names. The zero value is unusable; create with NewLibrary. It is safe for
// concurrent readers once populated.
type Library struct {
	// groups maps a normalized term to its equivalence-class id; terms in
	// the same class are mutual synonyms/abbreviations.
	groups map[string]int
	// members lists the original (un-normalized) terms of each class.
	members [][]string
}

// NewLibrary returns an empty Library.
func NewLibrary() *Library {
	return &Library{groups: make(map[string]int)}
}

// AddSynonyms records that all terms are interchangeable (one equivalence
// class). Classes merge transitively: AddSynonyms("Car","Auto") followed by
// AddSynonyms("Auto","Automobile") puts all three in one class.
func (l *Library) AddSynonyms(terms ...string) {
	if len(terms) == 0 {
		return
	}
	class := -1
	for _, t := range terms {
		if id, ok := l.groups[strutil.Normalize(t)]; ok {
			class = id
			break
		}
	}
	if class == -1 {
		class = len(l.members)
		l.members = append(l.members, nil)
	}
	for _, t := range terms {
		n := strutil.Normalize(t)
		if old, ok := l.groups[n]; ok && old != class {
			// Merge old class into class.
			for _, m := range l.members[old] {
				l.groups[strutil.Normalize(m)] = class
			}
			l.members[class] = append(l.members[class], l.members[old]...)
			l.members[old] = nil
			continue
		}
		if _, ok := l.groups[n]; !ok {
			l.groups[n] = class
			l.members[class] = append(l.members[class], t)
		}
	}
}

// AddAbbreviation records abbr as an abbreviation of full (same class; the
// matching semantics of Definition 3 treat synonyms and abbreviations
// identically, they only differ in provenance).
func (l *Library) AddAbbreviation(abbr, full string) { l.AddSynonyms(abbr, full) }

// Expand returns all terms equivalent to term (including term itself, as
// given). The result order is deterministic: term first, then class members
// in insertion order.
func (l *Library) Expand(term string) []string {
	out := []string{term}
	id, ok := l.groups[strutil.Normalize(term)]
	if !ok {
		return out
	}
	norm := strutil.Normalize(term)
	for _, m := range l.members[id] {
		if strutil.Normalize(m) != norm {
			out = append(out, m)
		}
	}
	return out
}

// Same reports whether a and b are in the same equivalence class (or are
// identical after normalization).
func (l *Library) Same(a, b string) bool {
	na, nb := strutil.Normalize(a), strutil.Normalize(b)
	if na == nb {
		return true
	}
	ia, oka := l.groups[na]
	ib, okb := l.groups[nb]
	return oka && okb && ia == ib
}

// Matcher resolves query node specifications to candidate graph nodes,
// implementing φ over a specific graph. It is safe for concurrent use.
type Matcher struct {
	g   *kg.Graph
	lib *Library
}

// NewMatcher returns a Matcher over g using lib (nil lib means an empty
// library: identical matching plus the heuristic fallback only).
func NewMatcher(g *kg.Graph, lib *Library) *Matcher {
	if lib == nil {
		lib = NewLibrary()
	}
	return &Matcher{g: g, lib: lib}
}

// MatchTypes returns the graph types matching typeName per Definition 3
// (identical, synonym, abbreviation), in deterministic order. The fallback
// pass runs on the graph's normalized-name/initials/prefix indexes instead
// of scanning the type vocabulary.
func (m *Matcher) MatchTypes(typeName string) []kg.TypeID {
	if typeName == "" {
		return nil
	}
	var out []kg.TypeID
	seen := make(map[kg.TypeID]bool)
	add := func(t kg.TypeID) {
		if t != kg.NoType && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, term := range m.lib.Expand(typeName) {
		add(m.g.TypeByName(term))
	}
	if len(out) == 0 {
		var cands []kg.TypeID
		// lib.Same(typeName, t): t normalizes identically to typeName or to
		// any member of its synonym class (Expand covers the whole class).
		for _, term := range m.lib.Expand(typeName) {
			cands = append(cands, m.g.TypesByNormName(strutil.Normalize(term))...)
		}
		cands = append(cands, abbreviationCandidates(typeName,
			m.g.TypesByNormName, m.g.TypesByInitials, m.g.TypesByProperNormPrefix)...)
		for _, t := range dedupeSorted(cands) {
			// The indexes key normalized names, under which distinct TypeIDs
			// can collide; re-check the exact predicate per candidate.
			name := m.g.TypeName(t)
			if m.lib.Same(typeName, name) ||
				strutil.IsAbbreviationOf(typeName, name) ||
				strutil.IsAbbreviationOf(name, typeName) {
				add(t)
			}
		}
	}
	return out
}

// MatchName returns the graph nodes whose name matches name per
// Definition 3, in deterministic order. The abbreviation fallback runs on
// the graph's indexes instead of scanning all nodes.
func (m *Matcher) MatchName(name string) []kg.NodeID {
	if name == "" {
		return nil
	}
	var out []kg.NodeID
	seen := make(map[kg.NodeID]bool)
	add := func(u kg.NodeID) {
		if u != kg.NoNode && !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	for _, term := range m.lib.Expand(name) {
		add(m.g.NodeByName(term))
	}
	if len(out) == 0 {
		for _, u := range dedupeSorted(abbreviationCandidates(name,
			m.g.NodesByNormName, m.g.NodesByInitials, m.g.NodesByProperNormPrefix)) {
			add(u)
		}
	}
	return out
}

// abbreviationCandidates enumerates, via the kg indexes, exactly the ids
// satisfying IsAbbreviationOf(name, candidate) || IsAbbreviationOf(candidate,
// name) — the fallback predicate. Four index probes cover its disjuncts:
//
//	(a) name is a strict prefix of the candidate's normalized name;
//	(b) name equals the candidate's initials (all or significant words);
//	(c) the candidate's normalized name is a strict prefix of name;
//	(d) the candidate's normalized name equals name's initials.
//
// IsAbbreviationOf additionally requires the abbreviation side to be >= 2
// bytes and strictly shorter than the full side, mirrored here before each
// probe. Results may repeat across probes and are unordered; callers
// dedupe and sort.
func abbreviationCandidates[ID ~int32](name string,
	byNorm, byInitials, byProperPrefix func(string) []ID) []ID {

	a := strutil.Normalize(name)
	var cands []ID
	if len(a) >= 2 {
		cands = append(cands, byProperPrefix(a)...) // (a)
		cands = append(cands, byInitials(a)...)     // (b)
	}
	for l := 2; l < len(a); l++ { // (c): every strict byte-prefix of a
		cands = append(cands, byNorm(a[:l])...)
	}
	all, sig := strutil.Initials(a) // (d)
	if len(all) >= 2 && len(all) < len(a) {
		cands = append(cands, byNorm(all)...)
	}
	if sig != all && len(sig) >= 2 && len(sig) < len(a) {
		cands = append(cands, byNorm(sig)...)
	}
	return cands
}

// dedupeSorted sorts ids ascending and removes duplicates: the fallback
// emits in id order, as a linear scan would.
func dedupeSorted[ID ~int32](ids []ID) []ID {
	if len(ids) < 2 {
		return ids
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// Memo caches MatchNode results per (name, typeName) pair. One engine
// Search call resolves the same query nodes twice — once in the cost
// estimator driving pivot selection, once when compiling searchers — so
// the engine threads one Memo through both. Not safe for concurrent use;
// create one per search call. The returned slices are shared between the
// cache and all callers and must not be modified.
type Memo struct {
	m     *Matcher
	cache map[memoKey][]kg.NodeID
}

type memoKey struct{ name, typeName string }

// Memo returns an empty per-call cache over the matcher.
func (m *Matcher) Memo() *Memo {
	return &Memo{m: m, cache: make(map[memoKey][]kg.NodeID)}
}

// MatchNode is Matcher.MatchNode with memoization.
func (mm *Memo) MatchNode(name, typeName string) []kg.NodeID {
	k := memoKey{name, typeName}
	if ids, ok := mm.cache[k]; ok {
		return ids
	}
	ids := mm.m.MatchNode(name, typeName)
	mm.cache[k] = ids
	return ids
}

// MatchNode returns φ(v) for a query node with the given name and type.
// Specific nodes (name != "") match by name, filtered by type when a type
// is given. Target nodes (name == "") match all nodes of a matching type.
// An empty result means the query node cannot be matched (the paper's G1_Q
// "Car" case before library support).
func (m *Matcher) MatchNode(name, typeName string) []kg.NodeID {
	if name != "" {
		byName := m.MatchName(name)
		if typeName == "" {
			return byName
		}
		types := m.MatchTypes(typeName)
		typeSet := make(map[kg.TypeID]bool, len(types))
		for _, t := range types {
			typeSet[t] = true
		}
		var out []kg.NodeID
		for _, u := range byName {
			// A node with unknown type still matches by name: the paper
			// falls back to entity typing, we keep the candidate.
			if m.g.NodeType(u) == kg.NoType || typeSet[m.g.NodeType(u)] {
				out = append(out, u)
			}
		}
		return out
	}
	var out []kg.NodeID
	for _, t := range m.MatchTypes(typeName) {
		out = append(out, m.g.NodesOfType(t)...)
	}
	return out
}
