// Package shard partitions one immutable kg.Graph into N shard graphs for
// scatter-gather search (see DESIGN.md, "Scatter-gather").
//
// The partition is by *node ownership with halo replication*: every node is
// owned by exactly one shard (deterministically, by node id modulo the
// shard count), and each shard graph is the subgraph induced by all nodes
// within Halo hops of its owned nodes. Any path of at most Halo edges
// whose first hop lands on an owned node therefore lies entirely inside
// the owner's shard graph (all path nodes are within Halo-1 hops of the
// first hop; the anchor is one hop away) — which is exactly the property
// the sharded engine needs: an A* sub-query search restricted to
// first-hops the shard owns finds, inside the shard graph alone, precisely
// those of the whole-graph search's matches, with identical path semantic
// similarities (searches bound path length by n̂ ≤ Halo). Because every
// match has exactly one first hop, the per-shard match streams form an
// exact, disjoint partition of the global match stream.
//
// Shard graphs are ordinary immutable kg.Graphs carrying their own derived
// indexes (built by kg.Builder.Build); Partition builds them in parallel.
package shard

import (
	"fmt"
	"sort"
	"sync"

	"semkg/internal/kg"
)

// DefaultHalo is the default replication radius, matching the engine's
// default path-length bound n̂ = 4. A sharded search whose MaxHops exceeds
// the partition's Halo cannot be answered from the shard graphs and falls
// back to the whole-graph engine.
const DefaultHalo = 4

// Options configures a partition.
type Options struct {
	// Shards is the number of shards. Must be >= 1; 1 yields a single
	// shard that is a relabeling-free copy of the base graph.
	Shards int
	// Halo is the replication radius in hops: each shard graph contains
	// every node within Halo hops of a node it owns (and every edge
	// between contained nodes). 0 means DefaultHalo. Larger halos support
	// deeper searches at the cost of more replication.
	Halo int
}

func (o Options) withDefaults() Options {
	if o.Halo <= 0 {
		o.Halo = DefaultHalo
	}
	return o
}

// Shard is one partition member: an immutable shard graph plus the id
// mappings back into the base graph. The zero value is unusable; obtain
// shards from Partition.
type Shard struct {
	// Index is this shard's position in [0, Shards).
	Index int
	// Shards is the total shard count of the partition this shard belongs
	// to; ownership is derivable from it (a node is owned when its base id
	// modulo Shards equals Index).
	Shards int
	// Graph is the shard subgraph, a self-contained immutable kg.Graph
	// with its own derived indexes. Node and edge ids are shard-local.
	Graph *kg.Graph

	// nodeGlobal[local] is the base-graph id of local node `local`;
	// strictly ascending (locals are assigned in ascending base order).
	nodeGlobal []kg.NodeID
	// edgeGlobal[local] is the base-graph id of local edge `local`;
	// strictly ascending.
	edgeGlobal []kg.EdgeID
	// predGlobal[local] is the base-graph id of local predicate `local`.
	predGlobal []kg.PredID
	ownedCount int
}

// GlobalNode maps a shard-local node id to its base-graph id.
func (s *Shard) GlobalNode(local kg.NodeID) kg.NodeID { return s.nodeGlobal[local] }

// LocalNode maps a base-graph node id into this shard, reporting false
// when the node was not replicated here. O(log n) — locals are assigned in
// ascending base order, so the mapping array is sorted.
func (s *Shard) LocalNode(global kg.NodeID) (kg.NodeID, bool) {
	i := sort.Search(len(s.nodeGlobal), func(i int) bool { return s.nodeGlobal[i] >= global })
	if i < len(s.nodeGlobal) && s.nodeGlobal[i] == global {
		return kg.NodeID(i), true
	}
	return kg.NoNode, false
}

// Owned reports whether the shard-local node is owned by this shard (as
// opposed to replicated into its halo). Exactly one shard owns each base
// node.
func (s *Shard) Owned(local kg.NodeID) bool {
	return int(s.nodeGlobal[local])%s.Shards == s.Index
}

// OwnedCount returns the number of nodes this shard owns.
func (s *Shard) OwnedCount() int { return s.ownedCount }

// Stats summarizes one shard for monitoring.
type Stats struct {
	// Index is the shard's position in the partition.
	Index int `json:"index"`
	// Nodes and Edges count the shard graph (owned plus halo replicas).
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Owned counts the nodes this shard owns; Replicated = Nodes - Owned
	// counts halo copies whose owner is another shard.
	Owned      int `json:"owned"`
	Replicated int `json:"replicated"`
}

// Stats returns the shard's summary.
func (s *Shard) Stats() Stats {
	return Stats{
		Index:      s.Index,
		Nodes:      s.Graph.NumNodes(),
		Edges:      s.Graph.NumEdges(),
		Owned:      s.ownedCount,
		Replicated: s.Graph.NumNodes() - s.ownedCount,
	}
}

// Set is a complete partition of one base graph: every base node is owned
// by exactly one member shard. Immutable and safe for concurrent use.
type Set struct {
	base   *kg.Graph
	halo   int
	shards []*Shard
}

// Base returns the partitioned base graph.
func (s *Set) Base() *kg.Graph { return s.base }

// Len returns the number of shards.
func (s *Set) Len() int { return len(s.shards) }

// Halo returns the replication radius the set was partitioned with.
func (s *Set) Halo() int { return s.halo }

// Shard returns member i.
func (s *Set) Shard(i int) *Shard { return s.shards[i] }

// Owner returns the index of the shard owning base node u.
func (s *Set) Owner(u kg.NodeID) int { return int(u) % len(s.shards) }

// AllStats returns per-shard summaries, indexed by shard.
func (s *Set) AllStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Stats()
	}
	return out
}

// Partition splits g into opts.Shards shard graphs. The partition is
// deterministic: the same graph and options always produce the same
// shards, bit for bit.
func Partition(g *kg.Graph, opts Options) (*Set, error) {
	if g == nil {
		return nil, fmt.Errorf("shard: nil graph")
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: Shards = %d out of range (must be >= 1)", opts.Shards)
	}
	opts = opts.withDefaults()
	set := &Set{base: g, halo: opts.Halo, shards: make([]*Shard, opts.Shards)}
	// Shard builds are independent (each reads the immutable base and
	// writes only its own slot), so they run in parallel — cold starts
	// and the per-ingest re-partition scale with the slowest shard, not
	// the shard count.
	var wg sync.WaitGroup
	for i := range set.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			set.shards[i] = buildShard(g, i, opts)
		}(i)
	}
	wg.Wait()
	return set, nil
}

// buildShard materializes one member: BFS from the owned nodes to Halo
// hops, then an induced-subgraph build in ascending base order.
func buildShard(g *kg.Graph, index int, opts Options) *Shard {
	n := g.NumNodes()
	member := make([]bool, n)
	// BFS frontier over base ids; path search ignores edge direction, so
	// the halo does too.
	var frontier []kg.NodeID
	for u := index; u < n; u += opts.Shards {
		member[u] = true
		frontier = append(frontier, kg.NodeID(u))
	}
	ownedCount := len(frontier)
	for depth := 0; depth < opts.Halo && len(frontier) > 0; depth++ {
		var next []kg.NodeID
		for _, u := range frontier {
			for _, h := range g.Neighbors(u) {
				if !member[h.Neighbor] {
					member[h.Neighbor] = true
					next = append(next, h.Neighbor)
				}
			}
		}
		frontier = next
	}

	// Locals in ascending base order: deterministic ids, sorted mapping.
	var nodeGlobal []kg.NodeID
	local := make([]kg.NodeID, n)
	for u := 0; u < n; u++ {
		if member[u] {
			local[u] = kg.NodeID(len(nodeGlobal))
			nodeGlobal = append(nodeGlobal, kg.NodeID(u))
		} else {
			local[u] = kg.NoNode
		}
	}

	b := kg.NewBuilder(len(nodeGlobal), len(nodeGlobal)*2)
	for _, u := range nodeGlobal {
		b.AddNode(g.NodeName(u), g.TypeName(g.NodeType(u)))
	}
	var edgeGlobal []kg.EdgeID
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.EdgeAt(kg.EdgeID(e))
		ls, ld := local[edge.Src], local[edge.Dst]
		if ls == kg.NoNode || ld == kg.NoNode {
			continue
		}
		b.AddEdge(ls, ld, g.PredName(edge.Pred))
		edgeGlobal = append(edgeGlobal, kg.EdgeID(e))
	}
	sg := b.Build()
	// Every shard predicate is interned by some kept edge, which names its
	// base predicate.
	predGlobal := make([]kg.PredID, sg.NumPredicates())
	for le, e := range edgeGlobal {
		predGlobal[sg.EdgeAt(kg.EdgeID(le)).Pred] = g.EdgeAt(e).Pred
	}
	return &Shard{
		Index:      index,
		Shards:     opts.Shards,
		Graph:      sg,
		nodeGlobal: nodeGlobal,
		edgeGlobal: edgeGlobal,
		predGlobal: predGlobal,
		ownedCount: ownedCount,
	}
}
