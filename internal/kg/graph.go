// Package kg implements the knowledge graph substrate of the reproduction:
// an in-memory directed labelled multigraph G = (V, E, L) per Definition 1 of
// the paper. Each node carries a unique name and a type; each edge carries a
// predicate. The graph is immutable once built (see Builder) and safe for
// concurrent readers, which lets the engine run one A* search goroutine per
// sub-query graph without locking.
//
// Path search in the paper ignores edge directionality (footnote 1), so the
// adjacency lists expose both outgoing and incoming halves of every edge.
package kg

import (
	"fmt"
	"strings"
)

// NodeID identifies a node (entity) in a Graph.
type NodeID int32

// EdgeID identifies a directed edge in a Graph.
type EdgeID int32

// PredID identifies a predicate label.
type PredID int32

// TypeID identifies an entity type label.
type TypeID int32

// NoNode is returned by lookups that find no node.
const NoNode NodeID = -1

// NoType marks nodes with an unknown type. The paper assigns types via a
// probabilistic entity-typing model when missing; our loader assigns NoType
// and the transformation library treats it as matching nothing.
const NoType TypeID = -1

// ValidLabel reports whether s may be used as a predicate or type name:
// non-empty and free of tabs, newlines and carriage returns — the field
// and record separators of the TSV triple format. A label violating this
// would not survive a WriteTriples / ReadTriples round trip (the triple
// would be split or merged), so every construction path (Builder, Delta,
// ReadTriples) rejects it up front instead of corrupting the file later.
func ValidLabel(s string) error {
	if s == "" {
		return fmt.Errorf("kg: empty name")
	}
	if strings.ContainsAny(s, "\t\n\r") {
		return fmt.Errorf("kg: name %q contains a tab, newline or carriage return", s)
	}
	return nil
}

// ValidName is ValidLabel plus the node-name-only rule: no leading '#'.
// Node names open TSV lines (as edge subjects or type-declaration
// subjects), where a leading '#' would turn the triple into a comment
// and silently drop it on re-read; predicates and type names never lead
// a line, so ValidLabel suffices for them.
func ValidName(s string) error {
	if err := ValidLabel(s); err != nil {
		return err
	}
	if s[0] == '#' {
		return fmt.Errorf("kg: name %q starts with the comment marker '#'", s)
	}
	return nil
}

// Edge is a directed labelled edge (a triple <src, pred, dst>).
type Edge struct {
	Src  NodeID
	Dst  NodeID
	Pred PredID
}

// Half is one endpoint's view of an edge, as stored in adjacency lists.
// Out reports whether the edge leaves the node that owns the list.
type Half struct {
	Edge     EdgeID
	Neighbor NodeID
	Pred     PredID
	Out      bool
}

// Graph is an immutable knowledge graph. Build one with a Builder.
type Graph struct {
	names []string
	types []TypeID

	typeNames []string
	byType    [][]NodeID

	predNames []string
	predIndex map[string]PredID

	edges []Edge

	// CSR-style adjacency: halves[adjOff[u]:adjOff[u+1]] are the edge
	// halves incident to node u, in edge-insertion order.
	adjOff []int32
	halves []Half

	predCount []int // edges per predicate

	// Derived read-only indexes, built once in Build (see index.go):
	// per-node distinct incident predicates (CSR) and the name indexes —
	// name -> id plus the normalized-name, initials and prefix lookups
	// backing the transformation library's fallback.
	nodePredOff []int32
	nodePreds   []PredID
	nameIdx     nameIndex
	typeIdx     nameIndex
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumPredicates returns the number of distinct predicates.
func (g *Graph) NumPredicates() int { return len(g.predNames) }

// NumTypes returns the number of distinct entity types.
func (g *Graph) NumTypes() int { return len(g.typeNames) }

// NameLayers returns how many immutable layers the node-name lookups
// probe: 1 for a graph from a Builder, ReadSnapshot or Empty, more after a
// chain of delta commits (see Delta.Commit). kgbench -exp ingest reports
// it to count layer merges.
func (g *Graph) NameLayers() int { return len(g.nameIdx.layers) }

// NodeName returns the unique name of u.
func (g *Graph) NodeName(u NodeID) string { return g.names[u] }

// NodeType returns the type of u (possibly NoType).
func (g *Graph) NodeType(u NodeID) TypeID { return g.types[u] }

// NodeByName returns the node with the given name, or NoNode.
func (g *Graph) NodeByName(name string) NodeID {
	return NodeID(g.nameIdx.lookup(name)) // NoNode is -1
}

// TypeName returns the name of type t, or "" for NoType.
func (g *Graph) TypeName(t TypeID) string {
	if t == NoType {
		return ""
	}
	return g.typeNames[t]
}

// TypeByName returns the type with the given name, or NoType.
func (g *Graph) TypeByName(name string) TypeID {
	return TypeID(g.typeIdx.lookup(name)) // NoType is -1
}

// NodesOfType returns all nodes with type t. The returned slice is shared;
// callers must not modify it.
func (g *Graph) NodesOfType(t TypeID) []NodeID {
	if t == NoType || int(t) >= len(g.byType) {
		return nil
	}
	return g.byType[t]
}

// PredName returns the name of predicate p.
func (g *Graph) PredName(p PredID) string { return g.predNames[p] }

// PredByName returns the predicate with the given name, or -1.
func (g *Graph) PredByName(name string) PredID {
	if id, ok := g.predIndex[name]; ok {
		return id
	}
	return -1
}

// PredCount returns how many edges carry predicate p.
func (g *Graph) PredCount(p PredID) int { return g.predCount[p] }

// Predicates returns the names of all predicates, indexed by PredID.
// The returned slice is shared; callers must not modify it.
func (g *Graph) Predicates() []string { return g.predNames }

// EdgeAt returns the directed edge with the given id.
func (g *Graph) EdgeAt(id EdgeID) Edge { return g.edges[id] }

// Neighbors returns the edge halves incident to u (both directions).
// The returned slice is shared; callers must not modify it.
func (g *Graph) Neighbors(u NodeID) []Half {
	return g.halves[g.adjOff[u]:g.adjOff[u+1]]
}

// Degree returns the number of edge halves incident to u.
func (g *Graph) Degree(u NodeID) int {
	return int(g.adjOff[u+1] - g.adjOff[u])
}

// AvgDegree returns the average node degree (counting both directions).
func (g *Graph) AvgDegree() float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return float64(len(g.halves)) / float64(g.NumNodes())
}

// Stats summarizes the graph in the format of the paper's Table IV.
type Stats struct {
	Entities    int
	Relations   int
	EntityTypes int
	Predicates  int
	AvgDegree   float64
}

// Stats returns summary statistics.
func (g *Graph) Stats() Stats {
	return Stats{
		Entities:    g.NumNodes(),
		Relations:   g.NumEdges(),
		EntityTypes: g.NumTypes(),
		Predicates:  g.NumPredicates(),
		AvgDegree:   g.AvgDegree(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("entities=%d relations=%d types=%d predicates=%d avgDegree=%.1f",
		s.Entities, s.Relations, s.EntityTypes, s.Predicates, s.AvgDegree)
}

// Builder assembles a Graph. It is not safe for concurrent use.
// Node names are unique: AddNode on an existing name returns the existing
// node (updating its type if previously unknown).
type Builder struct {
	g       Graph
	nameIDs map[string]int32 // handed to the graph's name indexes by Build
	typeIDs map[string]int32
	srcs    []NodeID // parallel to edge list, pre-CSR
	dsts    []NodeID
	preds   []PredID
}

// NewBuilder returns an empty Builder with capacity hints.
func NewBuilder(nodeHint, edgeHint int) *Builder {
	b := &Builder{}
	b.g.names = make([]string, 0, nodeHint)
	b.g.types = make([]TypeID, 0, nodeHint)
	b.nameIDs = make(map[string]int32, nodeHint)
	b.typeIDs = make(map[string]int32)
	b.g.predIndex = make(map[string]PredID)
	b.srcs = make([]NodeID, 0, edgeHint)
	b.dsts = make([]NodeID, 0, edgeHint)
	b.preds = make([]PredID, 0, edgeHint)
	return b
}

// AddNode registers a node with the given name and type name. An empty
// typeName yields NoType. If the node already exists its type is set when it
// was previously NoType; a conflicting non-empty type is ignored (first type
// wins, see TypePredicate), matching the one-type-per-entity assumption of
// the paper. Names must satisfy ValidName; like AddEdge with an unknown
// node, an invalid name is a programming error and panics (Delta offers the
// error-returning form for untrusted input).
func (b *Builder) AddNode(name, typeName string) NodeID {
	if err := ValidName(name); err != nil {
		panic("kg: AddNode: " + err.Error())
	}
	t := NoType
	if typeName != "" {
		t = b.internType(typeName)
	}
	if id, ok := b.nameIDs[name]; ok {
		if b.g.types[id] == NoType && t != NoType {
			b.g.types[id] = t
		}
		return NodeID(id)
	}
	id := NodeID(len(b.g.names))
	b.g.names = append(b.g.names, name)
	b.g.types = append(b.g.types, t)
	b.nameIDs[name] = int32(id)
	return id
}

// AddEdge adds a directed edge src --pred--> dst. Both nodes must exist.
func (b *Builder) AddEdge(src, dst NodeID, predicate string) EdgeID {
	if int(src) >= len(b.g.names) || int(dst) >= len(b.g.names) || src < 0 || dst < 0 {
		panic(fmt.Sprintf("kg: AddEdge with unknown node %d->%d", src, dst))
	}
	p := b.internPred(predicate)
	id := EdgeID(len(b.srcs))
	b.srcs = append(b.srcs, src)
	b.dsts = append(b.dsts, dst)
	b.preds = append(b.preds, p)
	return id
}

// AddTriple is a convenience that registers both endpoint nodes (with
// unknown types unless already known) and the connecting edge.
func (b *Builder) AddTriple(subject, predicate, object string) EdgeID {
	s := b.AddNode(subject, "")
	o := b.AddNode(object, "")
	return b.AddEdge(s, o, predicate)
}

func (b *Builder) internType(name string) TypeID {
	if id, ok := b.typeIDs[name]; ok {
		return TypeID(id)
	}
	if err := ValidLabel(name); err != nil {
		panic("kg: type name: " + err.Error())
	}
	id := TypeID(len(b.g.typeNames))
	b.g.typeNames = append(b.g.typeNames, name)
	b.typeIDs[name] = int32(id)
	return id
}

func (b *Builder) internPred(name string) PredID {
	if id, ok := b.g.predIndex[name]; ok {
		return id
	}
	if err := ValidLabel(name); err != nil {
		panic("kg: predicate name: " + err.Error())
	}
	id := PredID(len(b.g.predNames))
	b.g.predNames = append(b.g.predNames, name)
	b.g.predIndex[name] = id
	return id
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.g.names) }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.srcs) }

// Build finalizes the graph: it freezes node/edge sets, computes the
// CSR adjacency and the per-type node index. The Builder must not be used
// afterwards. Construction uses GOMAXPROCS workers; BuildWorkers exposes
// the knob (any worker count yields a structurally identical graph).
func (b *Builder) Build() *Graph { return b.BuildWorkers(0) }

// BuildWorkers is Build with an explicit worker count for the CSR
// threading and derived-index construction. workers == 1 runs the exact
// sequential algorithms (the cold-start baseline kgbench -exp load
// measures against); zero or negative means GOMAXPROCS. The produced
// graph is structurally identical for every worker count — same ids, same
// per-node adjacency order, same index contents.
func (b *Builder) BuildWorkers(workers int) *Graph {
	workers = normWorkers(workers)
	g := &b.g
	n := len(g.names)
	m := len(b.srcs)

	g.edges = make([]Edge, m)
	parspan(workers, m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.edges[i] = Edge{Src: b.srcs[i], Dst: b.dsts[i], Pred: b.preds[i]}
		}
	})

	// Degree count (each edge contributes to both endpoints; self-loops
	// contribute twice to the same node, once per direction).
	deg := make([]int32, n+1)
	for i := 0; i < m; i++ {
		deg[b.srcs[i]+1]++
		deg[b.dsts[i]+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	g.adjOff = deg
	g.halves = make([]Half, 2*m)

	tg := newTaskGroup(workers)
	tg.run(func() { threadHalves(g, workers) })
	tg.run(func() {
		g.byType = make([][]NodeID, len(g.typeNames))
		for id, t := range g.types {
			if t != NoType {
				g.byType[t] = append(g.byType[t], NodeID(id))
			}
		}
	})
	tg.run(func() {
		g.predCount = make([]int, len(g.predNames))
		for i := 0; i < m; i++ {
			g.predCount[b.preds[i]]++
		}
	})
	tg.wait()

	g.buildIndexes(workers, b.nameIDs, b.typeIDs)

	b.nameIDs, b.typeIDs = nil, nil
	b.srcs, b.dsts, b.preds = nil, nil, nil
	return g
}

// labelIndex maps each of names to its index.
func labelIndex[T ~int32](names []string) map[string]T {
	m := make(map[string]T, len(names))
	for i, name := range names {
		m[name] = T(i)
	}
	return m
}

// threadHalves fills g.halves from g.edges and g.adjOff, preserving the
// sequential cursor fill's per-node edge-insertion order. Workers split
// the node id space: each scans the full edge list but writes only the
// halves owned by its node range. The redundant sequential reads are
// cheap (prefetched, shared in cache); what matters is that the writes —
// which dominate — are fully independent, and per-worker state is one
// cursor array sized by the range, not O(nodes) count matrices.
func threadHalves(g *Graph, workers int) {
	n := len(g.adjOff) - 1
	parspan(workers, n, func(lo, hi int) {
		cursor := make([]int32, hi-lo)
		copy(cursor, g.adjOff[lo:hi])
		for i := range g.edges {
			ed := &g.edges[i]
			if s := int(ed.Src); s >= lo && s < hi {
				g.halves[cursor[s-lo]] = Half{Edge: EdgeID(i), Neighbor: ed.Dst, Pred: ed.Pred, Out: true}
				cursor[s-lo]++
			}
			if d := int(ed.Dst); d >= lo && d < hi {
				g.halves[cursor[d-lo]] = Half{Edge: EdgeID(i), Neighbor: ed.Src, Pred: ed.Pred, Out: false}
				cursor[d-lo]++
			}
		}
	})
}
