package query

import (
	"fmt"
	"strconv"
)

// AppendKey appends g's canonical encoding to b: node and edge counts,
// then every node (ID, name, type) and edge (from, to, predicate) in
// declaration order, which decomposition follows. Each string is written
// as its byte length, a colon and its bytes, so the encoding is injective.
// It is the one identity of a query: result-cache keys hash it, and
// keyword candidates dedup and tie-break on it.
func (g *Graph) AppendKey(b []byte) []byte {
	b = fmt.Appendf(b, "q:%d,%d;", len(g.Nodes), len(g.Edges))
	for _, n := range g.Nodes {
		b = appendField(appendField(appendField(append(b, 'n'), n.ID), n.Name), n.Type)
	}
	for _, e := range g.Edges {
		b = appendField(appendField(appendField(append(b, 'e'), e.From), e.To), e.Predicate)
	}
	return b
}

// AppendPathKey is AppendKey's form for a path-shaped sub-query: its
// nodes' names and types in path order, then its edges' predicates. Node
// IDs name nodes within one query only, so they are left out, and equal
// paths of different queries encode equally.
func AppendPathKey(b []byte, nodes []Node, preds []string) []byte {
	b = fmt.Appendf(b, "p:%d;", len(nodes))
	for _, n := range nodes {
		b = appendField(appendField(append(b, 'n'), n.Name), n.Type)
	}
	for _, p := range preds {
		b = appendField(append(b, 'e'), p)
	}
	return b
}

func appendField(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	return append(append(b, ':'), s...)
}
