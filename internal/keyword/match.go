package keyword

import (
	"sort"

	"semkg/internal/kg"
	"semkg/internal/strutil"
)

// Kind classifies what a keyword interpretation maps to in the graph.
type Kind string

// The three element kinds a keyword can resolve to.
const (
	KindEntity    Kind = "entity"
	KindType      Kind = "type"
	KindPredicate Kind = "predicate"
)

// Via records which index path produced an interpretation.
type Via string

// The three match paths, in decreasing intrinsic quality.
const (
	ViaExact    Via = "exact"
	ViaPrefix   Via = "prefix"
	ViaInitials Via = "initials"
)

// Match qualities per via: an exact normalized hit is certain; a proper
// prefix scales with how much of the name was typed; initials are the
// loosest (many names share initials).
const (
	qualityExact    = 1.0
	qualityPrefix   = 0.85
	qualityInitials = 0.7
)

// Interp is one interpretation of a keyword as a graph element, produced
// by the exact/prefix/initials name indexes (entities and types) or the
// predicate vocabulary. Count is the element's selectivity mass: matching
// nodes for an entity, type cardinality for a type, edge count for a
// predicate.
type Interp struct {
	Kind    Kind
	Via     Via
	Name    string  // the graph's spelling of the element
	Quality float64 // match quality in (0,1]
	Count   int

	// Nodes holds the matched entity nodes (KindEntity only; capped by
	// the evidenceNodes consumers, not here).
	Nodes []kg.NodeID
	// Type is the matched type (KindType only).
	Type kg.TypeID
	// Pred is the matched predicate (KindPredicate only).
	Pred kg.PredID
}

// kindRank orders interpretation kinds for deterministic tie-breaks:
// entities anchor assemblies, so they win ties.
func kindRank(k Kind) int {
	switch k {
	case KindEntity:
		return 0
	case KindType:
		return 1
	default:
		return 2
	}
}

// matchKeyword maps one normalized keyword to its ranked interpretations.
// Entities and types resolve through the exact, proper-prefix and
// initials indexes; predicates by normalized-name scan over the (small)
// predicate vocabulary. At most maxInterps interpretations survive,
// ranked by quality desc, then selectivity (smaller Count first), then
// kind, then name.
func matchKeyword(g *kg.Graph, norm string, maxInterps int) []Interp {
	var out []Interp

	// Entities: exact, then grouped prefix/initials (one interpretation
	// per distinct normalized name, so "ger" → germany counts once however
	// many Germany nodes exist).
	if ids := g.NodesByNormName(norm); len(ids) > 0 {
		out = append(out, Interp{
			Kind: KindEntity, Via: ViaExact, Name: g.NodeName(ids[0]),
			Quality: qualityExact, Count: len(ids), Nodes: ids,
		})
	}
	if len(norm) >= 2 {
		out = append(out, groupEntities(g, g.NodesByProperNormPrefix(norm), ViaPrefix, norm)...)
		out = append(out, groupEntities(g, g.NodesByInitials(norm), ViaInitials, norm)...)
	}

	// Types.
	for _, t := range g.TypesByNormName(norm) {
		out = append(out, Interp{
			Kind: KindType, Via: ViaExact, Name: g.TypeName(t),
			Quality: qualityExact, Count: len(g.NodesOfType(t)), Type: t,
		})
	}
	if len(norm) >= 2 {
		for _, t := range g.TypesByProperNormPrefix(norm) {
			name := g.TypeName(t)
			out = append(out, Interp{
				Kind: KindType, Via: ViaPrefix, Name: name,
				Quality: prefixQuality(norm, strutil.Normalize(name)),
				Count:   len(g.NodesOfType(t)), Type: t,
			})
		}
		for _, t := range g.TypesByInitials(norm) {
			out = append(out, Interp{
				Kind: KindType, Via: ViaInitials, Name: g.TypeName(t),
				Quality: qualityInitials, Count: len(g.NodesOfType(t)), Type: t,
			})
		}
	}

	// Predicates: the vocabulary is small (tens, not millions), so a scan
	// is cheaper than an index.
	for pi, pname := range g.Predicates() {
		pn := strutil.Normalize(pname)
		p := kg.PredID(pi)
		switch {
		case pn == norm:
			out = append(out, Interp{
				Kind: KindPredicate, Via: ViaExact, Name: pname,
				Quality: qualityExact, Count: g.PredCount(p), Pred: p,
			})
		case len(norm) >= 2 && len(pn) > len(norm) && pn[:len(norm)] == norm:
			out = append(out, Interp{
				Kind: KindPredicate, Via: ViaPrefix, Name: pname,
				Quality: prefixQuality(norm, pn), Count: g.PredCount(p), Pred: p,
			})
		}
	}

	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Quality != b.Quality {
			return a.Quality > b.Quality
		}
		if a.Count != b.Count {
			return a.Count < b.Count
		}
		if kindRank(a.Kind) != kindRank(b.Kind) {
			return kindRank(a.Kind) < kindRank(b.Kind)
		}
		return a.Name < b.Name
	})
	if len(out) > maxInterps {
		out = out[:maxInterps]
	}
	return out
}

// groupEntities folds a prefix/initials id list into one interpretation
// per distinct normalized name, deterministically ordered by name. The
// per-group id lists keep ascending NodeID order (the index emits
// per-name runs already sorted).
func groupEntities(g *kg.Graph, ids []kg.NodeID, via Via, norm string) []Interp {
	if len(ids) == 0 {
		return nil
	}
	groups := make(map[string][]kg.NodeID)
	spelling := make(map[string]string)
	for _, id := range ids {
		name := g.NodeName(id)
		n := strutil.Normalize(name)
		groups[n] = append(groups[n], id)
		if _, ok := spelling[n]; !ok {
			spelling[n] = name
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Interp, 0, len(keys))
	for _, k := range keys {
		nodes := groups[k]
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		q := qualityInitials
		if via == ViaPrefix {
			q = prefixQuality(norm, k)
		}
		out = append(out, Interp{
			Kind: KindEntity, Via: via, Name: spelling[k],
			Quality: q, Count: len(nodes), Nodes: nodes,
		})
	}
	return out
}

// prefixQuality scales the prefix-match quality by how much of the full
// normalized name the keyword covers.
func prefixQuality(prefix, full string) float64 {
	if len(full) == 0 {
		return qualityPrefix
	}
	return qualityPrefix * float64(len(prefix)) / float64(len(full))
}
