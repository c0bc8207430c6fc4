package kg

import (
	"fmt"
	"sort"
)

// Delta accumulates mutations against an immutable base Graph: new nodes,
// new edges, and type assignments for previously untyped nodes. The base
// is never modified — searchers holding it keep seeing a consistent graph
// — and Commit materializes a new immutable Graph that extends the base's
// id spaces (new nodes, types and predicates are appended after the
// existing ones, so every base id stays valid in the committed graph).
//
// Unlike Builder, whose invalid-input paths panic (programming errors),
// every Delta mutator returns an error: deltas are fed from untrusted
// live-ingestion input (semkgd's /v1/ingest), where a malformed triple
// must reject the request, not crash the server.
//
// Type overwrite rule (see TypePredicate): the first type wins. Typing an
// untyped node succeeds; re-typing an already-typed node is ignored.
//
// A Delta is not safe for concurrent use. Commit may be called once;
// after it the delta is spent and mutators return errors.
type Delta struct {
	base      *Graph
	committed bool

	// New nodes, ids base.NumNodes()+i; nameIDs becomes the committed
	// graph's newest name layer.
	names   []string
	types   []TypeID
	nameIDs map[string]int32

	// New interned type and predicate names, appended after the base's.
	typeNames []string
	typeIndex map[string]TypeID
	predNames []string
	predIndex map[string]PredID

	// retyped holds base nodes whose NoType was resolved by this delta.
	retyped map[NodeID]TypeID

	// New edges, ids base.NumEdges()+i.
	srcs  []NodeID
	dsts  []NodeID
	preds []PredID

	// stmts is the replication log: one Statement per successful mutation
	// (including intern-only no-ops like conflicting type declarations,
	// whose table side effects a replica must reproduce), in application
	// order. See Statements and ApplyStatement.
	stmts []Statement
}

// NewDelta returns an empty delta over base.
func NewDelta(base *Graph) *Delta {
	return &Delta{
		base:      base,
		nameIDs:   make(map[string]int32),
		typeIndex: make(map[string]TypeID),
		predIndex: make(map[string]PredID),
		retyped:   make(map[NodeID]TypeID),
	}
}

// Base returns the graph this delta mutates. serve.Apply uses it to detect
// deltas built against a superseded generation.
func (d *Delta) Base() *Graph { return d.base }

// Empty reports whether the delta holds no mutations. Newly interned
// type or predicate names count even without a node or edge using them
// (e.g. a conflicting type declaration whose type name is new: the
// retype is ignored, first type wins, but the combined statement stream
// interns the name — an at-once build would too, and commit equivalence
// demands the split build match it).
func (d *Delta) Empty() bool {
	return len(d.names) == 0 && len(d.srcs) == 0 && len(d.retyped) == 0 &&
		len(d.typeNames) == 0 && len(d.predNames) == 0
}

// AddedNodes returns the number of new nodes in the delta.
func (d *Delta) AddedNodes() int { return len(d.names) }

// AddedEdges returns the number of new edges in the delta.
func (d *Delta) AddedEdges() int { return len(d.srcs) }

// Retyped returns the number of base nodes whose unknown type this delta
// resolves.
func (d *Delta) Retyped() int { return len(d.retyped) }

func (d *Delta) spent() error {
	if d.committed {
		return fmt.Errorf("kg: delta already committed")
	}
	return nil
}

// numNodes is the node-id space of base plus delta.
func (d *Delta) numNodes() int { return d.base.NumNodes() + len(d.names) }

// nodeByName resolves a name across base and delta.
func (d *Delta) nodeByName(name string) NodeID {
	if id := d.base.NodeByName(name); id != NoNode {
		return id
	}
	if id, ok := d.nameIDs[name]; ok {
		return NodeID(id)
	}
	return NoNode
}

// typeOf returns the node's type as of this delta (base value overridden
// by a pending retype).
func (d *Delta) typeOf(id NodeID) TypeID {
	if int(id) < d.base.NumNodes() {
		if t, ok := d.retyped[id]; ok {
			return t
		}
		return d.base.types[id]
	}
	return d.types[int(id)-d.base.NumNodes()]
}

func (d *Delta) internType(name string) (TypeID, error) {
	if id := d.base.TypeByName(name); id != NoType {
		return id, nil
	}
	if id, ok := d.typeIndex[name]; ok {
		return id, nil
	}
	if err := ValidLabel(name); err != nil {
		return NoType, fmt.Errorf("type name: %w", err)
	}
	id := TypeID(d.base.NumTypes() + len(d.typeNames))
	d.typeNames = append(d.typeNames, name)
	d.typeIndex[name] = id
	return id, nil
}

func (d *Delta) internPred(name string) (PredID, error) {
	if id := d.base.PredByName(name); id >= 0 {
		return id, nil
	}
	if id, ok := d.predIndex[name]; ok {
		return id, nil
	}
	if err := ValidLabel(name); err != nil {
		return -1, fmt.Errorf("predicate name: %w", err)
	}
	id := PredID(d.base.NumPredicates() + len(d.predNames))
	d.predNames = append(d.predNames, name)
	d.predIndex[name] = id
	return id, nil
}

// AddNode registers a node, with Builder.AddNode's semantics (an empty
// typeName yields NoType; an existing node keeps its id, and its type is
// set only when previously unknown — first type wins).
func (d *Delta) AddNode(name, typeName string) (NodeID, error) {
	if err := d.spent(); err != nil {
		return NoNode, err
	}
	if err := ValidName(name); err != nil {
		return NoNode, err
	}
	t := NoType
	if typeName != "" {
		var err error
		if t, err = d.internType(typeName); err != nil {
			return NoNode, err
		}
	}
	if id := d.nodeByName(name); id != NoNode {
		if t != NoType && d.typeOf(id) == NoType {
			if int(id) < d.base.NumNodes() {
				d.retyped[id] = t
			} else {
				d.types[int(id)-d.base.NumNodes()] = t
			}
		}
		// Record type declarations even when first-type-wins ignores them:
		// the intern of a new type name is a table mutation a replica must
		// reproduce. A bare re-declaration of a known node mutates nothing
		// and is not recorded.
		if typeName != "" {
			d.stmts = append(d.stmts, Statement{S: name, P: TypePredicate, O: typeName})
		}
		return id, nil
	}
	id := NodeID(d.numNodes())
	d.names = append(d.names, name)
	d.types = append(d.types, t)
	d.nameIDs[name] = int32(id)
	if typeName != "" {
		d.stmts = append(d.stmts, Statement{S: name, P: TypePredicate, O: typeName})
	} else {
		d.stmts = append(d.stmts, Statement{S: name})
	}
	return id, nil
}

// SetType assigns a type to an existing (base or delta) node, first type
// wins. It reports whether the node's type changed: false means the node
// was already typed (the assignment is ignored) or already had this type.
func (d *Delta) SetType(name, typeName string) (bool, error) {
	if err := d.spent(); err != nil {
		return false, err
	}
	id := d.nodeByName(name)
	if id == NoNode {
		return false, fmt.Errorf("kg: SetType: unknown node %q", name)
	}
	if d.typeOf(id) != NoType {
		return false, nil
	}
	t, err := d.internType(typeName)
	if err != nil {
		return false, err
	}
	if int(id) < d.base.NumNodes() {
		d.retyped[id] = t
	} else {
		d.types[int(id)-d.base.NumNodes()] = t
	}
	d.stmts = append(d.stmts, Statement{S: name, P: TypePredicate, O: typeName})
	return true, nil
}

// AddEdge adds a directed edge src --pred--> dst between existing base or
// delta nodes. The reserved TypePredicate is rejected: an edge named
// "type" could not be distinguished from a type declaration in the
// TSV/ingest convention the replication log is expressed in.
func (d *Delta) AddEdge(src, dst NodeID, predicate string) (EdgeID, error) {
	if err := d.spent(); err != nil {
		return -1, err
	}
	if predicate == TypePredicate {
		return -1, fmt.Errorf("kg: AddEdge: %q is the reserved type-declaration predicate", predicate)
	}
	if n := d.numNodes(); src < 0 || dst < 0 || int(src) >= n || int(dst) >= n {
		return -1, fmt.Errorf("kg: AddEdge with unknown node %d->%d", src, dst)
	}
	p, err := d.internPred(predicate)
	if err != nil {
		return -1, err
	}
	id := EdgeID(d.base.NumEdges() + len(d.srcs))
	d.srcs = append(d.srcs, src)
	d.dsts = append(d.dsts, dst)
	d.preds = append(d.preds, p)
	d.stmts = append(d.stmts, Statement{S: d.nodeName(src), P: predicate, O: d.nodeName(dst)})
	return id, nil
}

// nodeName resolves a base or delta node id to its name (the inverse of
// nodeByName, used to express edges in the replication log).
func (d *Delta) nodeName(id NodeID) string {
	if int(id) < d.base.NumNodes() {
		return d.base.NodeName(id)
	}
	return d.names[int(id)-d.base.NumNodes()]
}

// AddTriple registers both endpoint nodes (untyped unless already known)
// and the connecting edge, mirroring Builder.AddTriple. All three
// components are validated before anything mutates: a rejected triple
// leaves the delta exactly as it was (no phantom endpoint nodes).
func (d *Delta) AddTriple(subject, predicate, object string) (EdgeID, error) {
	if err := d.spent(); err != nil {
		return -1, err
	}
	if err := ValidName(subject); err != nil {
		return -1, err
	}
	if err := ValidName(object); err != nil {
		return -1, err
	}
	if err := ValidLabel(predicate); err != nil {
		return -1, fmt.Errorf("predicate name: %w", err)
	}
	if predicate == TypePredicate {
		return -1, fmt.Errorf("kg: AddTriple: %q is the reserved type-declaration predicate (use ApplyTriple)", predicate)
	}
	s, err := d.AddNode(subject, "")
	if err != nil {
		return -1, err
	}
	o, err := d.AddNode(object, "")
	if err != nil {
		return -1, err
	}
	return d.AddEdge(s, o, predicate)
}

// ApplyTriple applies one triple with the TSV/ingest convention of
// ReadTriples: the reserved predicate "type" assigns the object as the
// subject's entity type (first type wins), anything else adds an edge.
// Feeding a triple stream through ApplyTriple produces the same graph as
// loading it with ReadTriples. A rejected triple mutates nothing.
func (d *Delta) ApplyTriple(subject, predicate, object string) error {
	if predicate == TypePredicate {
		_, err := d.AddNode(subject, object)
		return err
	}
	_, err := d.AddTriple(subject, predicate, object)
	return err
}

// Commit materializes the delta as a new immutable Graph. The base graph
// is untouched. The name lookups cost the delta, not the graph: the
// committed node-name index shares every layer of the base's and adds one
// layer indexing only the new names (layers merge by the logarithmic
// method, see nameIndex), and the type and predicate vocabularies — tens
// of labels — are re-indexed whole only when the delta adds to them. The
// arrays are copied at full size, extended by the delta: per-node
// adjacency spans with the delta halves appended, NodePreds spans (copied
// verbatim for untouched nodes), and the per-type buckets, of which only
// those with additions are re-merged (the rest are shared with the base).
// The result is logically identical to building the combined triple set
// from scratch (base insertion order, then delta insertion order) — the
// same ids, arrays and lookup answers, and the same snapshot bytes — so
// searches over it are bit-identical to a full rebuild.
//
// Commit may be called once; it panics on a second call.
func (d *Delta) Commit() *Graph {
	if d.committed {
		panic("kg: Delta.Commit called twice")
	}
	d.committed = true

	b := d.base
	n0, n := b.NumNodes(), d.numNodes()
	m0, m := b.NumEdges(), b.NumEdges()+len(d.srcs)

	g := &Graph{}
	g.names = append(append(make([]string, 0, n), b.names...), d.names...)
	g.types = append(append(make([]TypeID, 0, n), b.types...), d.types...)
	for id, t := range d.retyped {
		g.types[id] = t
	}
	g.nameIdx = b.nameIdx.with(d.names, n0, d.nameIDs)

	g.typeNames, g.typeIdx = b.typeNames, b.typeIdx
	if len(d.typeNames) > 0 {
		g.typeNames = append(b.typeNames[:len(b.typeNames):len(b.typeNames)], d.typeNames...)
		g.typeIdx = newNameIndex(g.typeNames, labelIndex[int32](g.typeNames), 1)
	}
	g.predNames, g.predIndex = b.predNames, b.predIndex
	if len(d.predNames) > 0 {
		g.predNames = append(b.predNames[:len(b.predNames):len(b.predNames)], d.predNames...)
		g.predIndex = labelIndex[PredID](g.predNames)
	}

	g.edges = make([]Edge, m)
	copy(g.edges, b.edges)
	for i := range d.srcs {
		g.edges[m0+i] = Edge{Src: d.srcs[i], Dst: d.dsts[i], Pred: d.preds[i]}
	}

	// Adjacency CSR: per-node base span copied in place, delta halves
	// appended after it (edge ids of the delta are larger than every base
	// id, so per-node order remains global edge-insertion order).
	ddeg := make([]int32, n)
	for i := range d.srcs {
		ddeg[d.srcs[i]]++
		ddeg[d.dsts[i]]++
	}
	g.adjOff = make([]int32, n+1)
	for u := 0; u < n; u++ {
		var bd int32
		if u < n0 {
			bd = b.adjOff[u+1] - b.adjOff[u]
		}
		g.adjOff[u+1] = g.adjOff[u] + bd + ddeg[u]
	}
	g.halves = make([]Half, 2*m)
	cursor := make([]int32, n)
	for u := 0; u < n0; u++ {
		copy(g.halves[g.adjOff[u]:], b.halves[b.adjOff[u]:b.adjOff[u+1]])
		cursor[u] = g.adjOff[u] + (b.adjOff[u+1] - b.adjOff[u])
	}
	for u := n0; u < n; u++ {
		cursor[u] = g.adjOff[u]
	}
	for i := range d.srcs {
		e := EdgeID(m0 + i)
		s, t, p := d.srcs[i], d.dsts[i], d.preds[i]
		g.halves[cursor[s]] = Half{Edge: e, Neighbor: t, Pred: p, Out: true}
		cursor[s]++
		g.halves[cursor[t]] = Half{Edge: e, Neighbor: s, Pred: p, Out: false}
		cursor[t]++
	}

	// Per-type node lists: buckets without additions are shared with the
	// base; patched buckets are re-merged to keep the ascending-NodeID
	// invariant (a retyped base node lands mid-bucket).
	g.byType = make([][]NodeID, len(g.typeNames))
	copy(g.byType, b.byType)
	additions := make(map[TypeID][]NodeID)
	for id, t := range d.retyped {
		additions[t] = append(additions[t], id)
	}
	for i, t := range d.types {
		if t != NoType {
			additions[t] = append(additions[t], NodeID(n0+i))
		}
	}
	for t, add := range additions {
		sort.Slice(add, func(i, j int) bool { return add[i] < add[j] })
		old := g.byType[t]
		merged := make([]NodeID, 0, len(old)+len(add))
		i, j := 0, 0
		for i < len(old) && j < len(add) {
			if old[i] < add[j] {
				merged = append(merged, old[i])
				i++
			} else {
				merged = append(merged, add[j])
				j++
			}
		}
		merged = append(append(merged, old[i:]...), add[j:]...)
		g.byType[t] = merged
	}

	g.predCount = make([]int, len(g.predNames))
	copy(g.predCount, b.predCount)
	for _, p := range d.preds {
		g.predCount[p]++
	}

	// NodePreds CSR: untouched nodes copy their base span verbatim;
	// touched nodes keep the base distinct-predicate prefix and append the
	// predicates first seen among their new halves.
	g.nodePredOff = make([]int32, n+1)
	g.nodePreds = make([]PredID, 0, len(b.nodePreds)+2*len(d.preds)) // each edge may add a predicate at both ends
	mark := make([]int32, len(g.predNames))
	for i := range mark {
		mark[i] = -1
	}
	for u := 0; u < n; u++ {
		if u < n0 {
			span := b.nodePreds[b.nodePredOff[u]:b.nodePredOff[u+1]]
			if ddeg[u] == 0 {
				g.nodePreds = append(g.nodePreds, span...)
				g.nodePredOff[u+1] = int32(len(g.nodePreds))
				continue
			}
			for _, p := range span {
				mark[p] = int32(u)
				g.nodePreds = append(g.nodePreds, p)
			}
		}
		for _, h := range g.halves[g.adjOff[u+1]-ddeg[u] : g.adjOff[u+1]] {
			if mark[h.Pred] != int32(u) {
				mark[h.Pred] = int32(u)
				g.nodePreds = append(g.nodePreds, h.Pred)
			}
		}
		g.nodePredOff[u+1] = int32(len(g.nodePreds))
	}

	return g
}
