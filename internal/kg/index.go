package kg

import (
	"maps"
	"sort"
	"strings"

	"semkg/internal/strutil"
)

// nameIndex serves every string-keyed lookup over one name vocabulary
// (node names or type names): the exact name -> id map, and the access
// paths behind the transformation library's fallback matching
// (Definition 3: identical / synonym / abbreviation), which replace the
// seed's O(|V|) scans.
//
// It is a stack of immutable layers, oldest first; each layer indexes the
// names of one contiguous id range, and the ranges ascend with the stack.
// Every lookup is decomposable — its answer is the union of the layers'
// answers — so a delta commit adds one layer built from the delta's new
// names alone and shares every older layer with its base (the
// static-to-dynamic transformation of Bentley & Saxe, J. Algorithms 1980).
// Layers merge by the logarithmic method: while the newest layer holds at
// least as many names as the one below it, the two merge. A commit then
// costs O(delta · log n) amortised and a lookup probes O(log n) layers.
// Builder, ReadSnapshot and Empty build a single layer, so a graph that
// never took a commit keeps one-probe lookups.
type nameIndex struct {
	layers []*nameLayer
}

// nameLayer indexes the names of one id range four ways:
//
//   - ids:      name -> id;
//   - norm:     normalized name -> ids, for identity and synonym-class
//     lookups done on normalized strings rather than exact spellings;
//   - initials: initials-style abbreviation (both the all-words and the
//     stop-word-skipping form of strutil.Initials) -> ids of the names it
//     abbreviates;
//   - sorted:   sorted distinct normalized names (with their norm ids in
//     sortedIDs), for prefix-abbreviation range scans ("ger" -> "germany")
//     by binary search.
//
// Every id list ascends. A layer is never modified once built.
type nameLayer struct {
	ids       map[string]int32
	norm      map[string][]int32
	initials  map[string][]int32
	sorted    []string
	sortedIDs [][]int32
}

// newNameIndex returns the single-layer index of a whole vocabulary; ids
// is its name -> id map, kept, not copied.
func newNameIndex(names []string, ids map[string]int32, workers int) nameIndex {
	return nameIndex{layers: []*nameLayer{buildNameLayer(names, 0, ids, workers)}}
}

// buildNameLayer indexes names, whose ids run from idBase up and which
// ids maps to those ids, with the string work — Normalize and Initials, the
// dominant cost — precomputed across workers. Map assembly stays
// sequential in ascending id order, so every bucket's id order matches
// the serial build exactly.
func buildNameLayer(names []string, idBase int, ids map[string]int32, workers int) *nameLayer {
	l := &nameLayer{
		ids:      ids,
		norm:     make(map[string][]int32, len(names)),
		initials: make(map[string][]int32),
	}
	norms := make([]string, len(names))
	alls := make([]string, len(names))
	sigs := make([]string, len(names))
	parspan(workers, len(names), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			n := strutil.Normalize(names[i])
			norms[i] = n
			// Only initials that strutil.IsAbbreviationOf could ever accept
			// are indexed: at least 2 bytes and strictly shorter than the
			// full name. Entries failing the rule stay "", never indexed
			// (Initials of a non-empty word is never empty).
			all, sig := strutil.Initials(n)
			if len(all) >= 2 && len(all) < len(n) {
				alls[i] = all
			}
			if sig != all && len(sig) >= 2 && len(sig) < len(n) {
				sigs[i] = sig
			}
		}
	})
	for i, n := range norms {
		id := int32(idBase + i)
		l.norm[n] = append(l.norm[n], id)
		if alls[i] != "" {
			l.initials[alls[i]] = append(l.initials[alls[i]], id)
		}
		if sigs[i] != "" {
			l.initials[sigs[i]] = append(l.initials[sigs[i]], id)
		}
	}
	l.sorted = make([]string, 0, len(l.norm))
	for n := range l.norm {
		l.sorted = append(l.sorted, n)
	}
	sort.Strings(l.sorted)
	l.sortedIDs = make([][]int32, len(l.sorted))
	for i, n := range l.sorted {
		l.sortedIDs[i] = l.norm[n]
	}
	return l
}

// with returns ix extended by names, whose ids run from idBase up; ids
// maps each of them to its id and is kept, not copied. Every layer of ix is
// shared with the result; the new layer merges down while it is at least
// as large as the layer below it.
func (ix nameIndex) with(names []string, idBase int, ids map[string]int32) nameIndex {
	if len(names) == 0 {
		return ix
	}
	top := buildNameLayer(names, idBase, ids, 1)
	layers := append(make([]*nameLayer, 0, len(ix.layers)+1), ix.layers...)
	for len(layers) > 0 && len(top.ids) >= len(layers[len(layers)-1].ids) {
		top = mergeLayers(layers[len(layers)-1], top)
		layers = layers[:len(layers)-1]
	}
	return nameIndex{layers: append(layers, top)}
}

// mergeLayers merges two adjacent layers, a below b, into one. Every id
// of b exceeds every id of a, so a key's merged id list is a's followed
// by b's and stays ascending.
func mergeLayers(a, b *nameLayer) *nameLayer {
	m := &nameLayer{
		ids:      make(map[string]int32, len(a.ids)+len(b.ids)),
		norm:     mergeTable(a.norm, b.norm),
		initials: mergeTable(a.initials, b.initials),
		sorted:   make([]string, 0, len(a.sorted)+len(b.sorted)),
	}
	maps.Copy(m.ids, a.ids)
	maps.Copy(m.ids, b.ids)
	i, j := 0, 0
	for i < len(a.sorted) || j < len(b.sorted) {
		switch {
		case j == len(b.sorted) || i < len(a.sorted) && a.sorted[i] < b.sorted[j]:
			m.sorted = append(m.sorted, a.sorted[i])
			i++
		case i == len(a.sorted) || b.sorted[j] < a.sorted[i]:
			m.sorted = append(m.sorted, b.sorted[j])
			j++
		default:
			m.sorted = append(m.sorted, a.sorted[i])
			i++
			j++
		}
	}
	m.sortedIDs = make([][]int32, len(m.sorted))
	for i, k := range m.sorted {
		m.sortedIDs[i] = m.norm[k]
	}
	return m
}

// mergeTable is one table of mergeLayers. A key in both gets a fresh id
// list: the layers' own lists are shared with older graphs.
func mergeTable(a, b map[string][]int32) map[string][]int32 {
	m := make(map[string][]int32, len(a)+len(b))
	maps.Copy(m, a)
	for k, v := range b {
		if old, ok := m[k]; ok {
			v = append(old[:len(old):len(old)], v...)
		}
		m[k] = v
	}
	return m
}

// flat returns the whole vocabulary as one layer — the logical tables a
// from-scratch build holds, which WriteSnapshot stores. Merging from the
// newest layer down keeps it O(names).
func (ix nameIndex) flat() *nameLayer {
	top := len(ix.layers) - 1
	l := ix.layers[top]
	for i := top - 1; i >= 0; i-- {
		l = mergeLayers(ix.layers[i], l)
	}
	return l
}

// lookup returns the id of name, or -1.
func (ix nameIndex) lookup(name string) int32 {
	for _, l := range ix.layers {
		if id, ok := l.ids[name]; ok {
			return id
		}
	}
	return -1
}

// gather concatenates one key's id lists over the layers, oldest first,
// so the result ascends.
func gather[T ~int32](ix nameIndex, key string, table func(*nameLayer) map[string][]int32) []T {
	var out []T
	for _, l := range ix.layers {
		ids := table(l)[key]
		if len(ids) == 0 {
			continue
		}
		if out == nil {
			out = make([]T, 0, len(ids))
		}
		for _, id := range ids {
			out = append(out, T(id))
		}
	}
	return out
}

func normTable(l *nameLayer) map[string][]int32     { return l.norm }
func initialsTable(l *nameLayer) map[string][]int32 { return l.initials }

// properPrefix returns the ids of all names that have p as a strict prefix
// (normalized name longer than p), in the order one layer's range scan
// gives: by normalized name, then by id. Each layer contributes the run
// of its sorted names in the prefix range; the runs merge by key, and an
// equal key emits the older layer's ids first.
func properPrefix[T ~int32](ix nameIndex, p string) []T {
	type run struct {
		keys []string
		ids  [][]int32
	}
	var buf [8]run
	runs, total := buf[:0], 0
	for _, l := range ix.layers {
		lo := sort.SearchStrings(l.sorted, p)
		if lo < len(l.sorted) && l.sorted[lo] == p {
			lo++ // not a strict prefix
		}
		hi := lo
		for ; hi < len(l.sorted) && strings.HasPrefix(l.sorted[hi], p); hi++ {
			total += len(l.sortedIDs[hi])
		}
		if hi > lo {
			runs = append(runs, run{l.sorted[lo:hi], l.sortedIDs[lo:hi]})
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]T, 0, total)
	emit := func(ids []int32) {
		for _, id := range ids {
			out = append(out, T(id))
		}
	}
	for len(runs) > 1 {
		key := runs[0].keys[0]
		for _, r := range runs[1:] {
			key = min(key, r.keys[0])
		}
		live := runs[:0]
		for _, r := range runs {
			if r.keys[0] == key {
				emit(r.ids[0])
				r.keys, r.ids = r.keys[1:], r.ids[1:]
			}
			if len(r.keys) > 0 {
				live = append(live, r)
			}
		}
		runs = live
	}
	for _, r := range runs { // the last run needs no merging
		for _, ids := range r.ids {
			emit(ids)
		}
	}
	return out
}

// NodesByNormName returns the nodes whose strutil.Normalize'd name equals
// norm (norm must already be normalized), in ascending NodeID order.
func (g *Graph) NodesByNormName(norm string) []NodeID {
	return gather[NodeID](g.nameIdx, norm, normTable)
}

// NodesByInitials returns the nodes whose name abbreviates to initials per
// strutil.Initials (either the all-words or the significant-words form),
// in ascending NodeID order. Initials shorter than 2 bytes are never
// indexed, mirroring strutil.IsAbbreviationOf.
func (g *Graph) NodesByInitials(initials string) []NodeID {
	return gather[NodeID](g.nameIdx, initials, initialsTable)
}

// NodesByProperNormPrefix returns the nodes whose normalized name has the
// given strict prefix (the node name is longer), in ascending NodeID order
// per prefix-range; callers needing global NodeID order must sort.
func (g *Graph) NodesByProperNormPrefix(prefix string) []NodeID {
	return properPrefix[NodeID](g.nameIdx, prefix)
}

// TypesByNormName is NodesByNormName over the type vocabulary.
func (g *Graph) TypesByNormName(norm string) []TypeID {
	return gather[TypeID](g.typeIdx, norm, normTable)
}

// TypesByInitials is NodesByInitials over the type vocabulary.
func (g *Graph) TypesByInitials(initials string) []TypeID {
	return gather[TypeID](g.typeIdx, initials, initialsTable)
}

// TypesByProperNormPrefix is NodesByProperNormPrefix over the type
// vocabulary.
func (g *Graph) TypesByProperNormPrefix(prefix string) []TypeID {
	return properPrefix[TypeID](g.typeIdx, prefix)
}

// NodePreds returns the distinct predicates incident to u (either
// direction), in first-occurrence order of u's adjacency list. The semantic
// m(u) bound is a maximum over edge weights, which only depends on this
// set, so consumers iterate O(distinct predicates) instead of O(degree) —
// on dense hub nodes the difference is orders of magnitude. The returned
// slice is shared; callers must not modify it.
func (g *Graph) NodePreds(u NodeID) []PredID {
	return g.nodePreds[g.nodePredOff[u]:g.nodePredOff[u+1]]
}

// buildIndexes computes the derived read-only indexes; called by Build
// with the builder's name -> id maps, which the name indexes keep. The
// three indexes are independent, so they build concurrently; the two big
// ones (NodePreds CSR, node-name index) also parallelize internally.
func (g *Graph) buildIndexes(workers int, nameIDs, typeIDs map[string]int32) {
	tg := newTaskGroup(workers)
	tg.run(func() { g.buildNodePreds(workers) })
	tg.run(func() { g.nameIdx = newNameIndex(g.names, nameIDs, workers) })
	tg.run(func() { g.typeIdx = newNameIndex(g.typeNames, typeIDs, 1) }) // type vocabulary is tiny
	tg.wait()
}

// buildNodePreds computes the per-node distinct-incident-predicate CSR.
// Parallel builds use two node-range passes — count spans, prefix-sum,
// fill — with one mark array per worker sized by the predicate
// vocabulary, so extra memory is O(workers × predicates), not O(nodes).
// Per-node first-occurrence order is inherent to the scan, so any worker
// count fills identical arrays.
func (g *Graph) buildNodePreds(workers int) {
	n := len(g.names)
	g.nodePredOff = make([]int32, n+1)
	if workers <= 1 {
		// Sequential fast path: one pass, append as discovered. Keeping it
		// distinct keeps the workers=1 baseline an honest single-pass
		// serial build, not a two-pass algorithm run on one goroutine.
		g.nodePreds = make([]PredID, 0, n)
		mark := make([]int32, len(g.predNames))
		for i := range mark {
			mark[i] = -1
		}
		for u := 0; u < n; u++ {
			for _, h := range g.halves[g.adjOff[u]:g.adjOff[u+1]] {
				if mark[h.Pred] != int32(u) {
					mark[h.Pred] = int32(u)
					g.nodePreds = append(g.nodePreds, h.Pred)
				}
			}
			g.nodePredOff[u+1] = int32(len(g.nodePreds))
		}
		return
	}
	parspan(workers, n, func(lo, hi int) {
		mark := make([]int32, len(g.predNames))
		for i := range mark {
			mark[i] = -1
		}
		for u := lo; u < hi; u++ {
			c := int32(0)
			for _, h := range g.halves[g.adjOff[u]:g.adjOff[u+1]] {
				if mark[h.Pred] != int32(u) {
					mark[h.Pred] = int32(u)
					c++
				}
			}
			g.nodePredOff[u+1] = c
		}
	})
	for u := 0; u < n; u++ {
		g.nodePredOff[u+1] += g.nodePredOff[u]
	}
	g.nodePreds = make([]PredID, g.nodePredOff[n])
	parspan(workers, n, func(lo, hi int) {
		mark := make([]int32, len(g.predNames))
		for i := range mark {
			mark[i] = -1
		}
		for u := lo; u < hi; u++ {
			w := g.nodePredOff[u]
			for _, h := range g.halves[g.adjOff[u]:g.adjOff[u+1]] {
				if mark[h.Pred] != int32(u) {
					mark[h.Pred] = int32(u)
					g.nodePreds[w] = h.Pred
					w++
				}
			}
		}
	})
}
