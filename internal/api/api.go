// Package api defines the stable wire representation of queries, options,
// answers and stream events — the one JSON vocabulary shared by the
// semkgd HTTP service, the kgsearch CLI and any other client. Decoders are
// strict (unknown fields are rejected), so a typo in a query document
// fails loudly instead of silently matching nothing; field matching is
// case-insensitive per encoding/json, which keeps pre-existing documents
// with Go-style capitalized keys working.
//
// See DESIGN.md, "Wire protocol", for the full request/response and
// NDJSON event specification.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"semkg/internal/core"
	"semkg/internal/query"
)

// Duration marshals as a Go duration string ("50ms", "1.5s") and accepts
// either a duration string or a JSON number of nanoseconds.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "50ms"-style strings and integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("api: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("api: duration must be a string like %q or integer nanoseconds", "50ms")
	}
	*d = Duration(ns)
	return nil
}

// Node is the wire form of one query-graph node.
type Node struct {
	// ID names the node within the query document; edges reference it.
	ID string `json:"id"`
	// Name anchors a specific node at a knowledge-graph entity (matched
	// through the transformation library); empty marks a target
	// (variable) node whose bindings are discovered.
	Name string `json:"name,omitempty"`
	// Type constrains matches to an entity type (synonyms and
	// abbreviations included); empty accepts any type.
	Type string `json:"type,omitempty"`
}

// Edge is the wire form of one query-graph edge.
type Edge struct {
	// From references a node ID declared in the same document.
	From string `json:"from"`
	// To references a node ID declared in the same document.
	To string `json:"to"`
	// Predicate is the intended relation; the engine also follows
	// semantically similar predicates (that is the point of the paper).
	Predicate string `json:"predicate"`
}

// Query is the wire form of a query graph. Declaration order is
// semantically relevant: decomposition walks nodes and edges in order,
// and the serving layer keys its caches on the ordered document.
type Query struct {
	// Nodes declares the query's entities and variables.
	Nodes []Node `json:"nodes"`
	// Edges connects the declared nodes with predicates.
	Edges []Edge `json:"edges"`
}

// Graph converts the wire query into the engine's query graph.
func (q Query) Graph() *query.Graph {
	g := &query.Graph{
		Nodes: make([]query.Node, len(q.Nodes)),
		Edges: make([]query.Edge, len(q.Edges)),
	}
	for i, n := range q.Nodes {
		g.Nodes[i] = query.Node{ID: n.ID, Name: n.Name, Type: n.Type}
	}
	for i, e := range q.Edges {
		g.Edges[i] = query.Edge{From: e.From, To: e.To, Predicate: e.Predicate}
	}
	return g
}

// QueryFrom converts an engine query graph into its wire form.
func QueryFrom(g *query.Graph) Query {
	q := Query{
		Nodes: make([]Node, len(g.Nodes)),
		Edges: make([]Edge, len(g.Edges)),
	}
	for i, n := range g.Nodes {
		q.Nodes[i] = Node{ID: n.ID, Name: n.Name, Type: n.Type}
	}
	for i, e := range g.Edges {
		q.Edges[i] = Edge{From: e.From, To: e.To, Predicate: e.Predicate}
	}
	return q
}

// decodeStrict decodes exactly one JSON value from r into v, rejecting
// unknown fields and trailing data.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("api: trailing data after JSON document")
	}
	return nil
}

// DecodeQuery parses a query document strictly: unknown fields and
// trailing data are errors. It does not run query.Graph.Validate — the
// caller decides whether structural validation failures are fatal.
func DecodeQuery(data []byte) (*query.Graph, error) {
	var q Query
	if err := decodeStrict(bytes.NewReader(data), &q); err != nil {
		return nil, fmt.Errorf("api: parsing query: %w", err)
	}
	return q.Graph(), nil
}

// EncodeQuery renders a query graph as its canonical wire document.
func EncodeQuery(g *query.Graph) ([]byte, error) {
	return json.Marshal(QueryFrom(g))
}

// Options is the wire form of the search options. Absent fields mean the
// engine defaults; Clock and Rng have no wire form (they are process-local
// test hooks). Out-of-range values are rejected with a 400 by the service
// (core.Options.Validate), never silently clamped.
type Options struct {
	// K is the number of answers to return. 0 = default 10.
	K int `json:"k,omitempty"`
	// Tau is the path-semantic-similarity threshold τ in (0,1].
	// 0 = default 0.8.
	Tau float64 `json:"tau,omitempty"`
	// MaxHops is the path-length bound n̂ in knowledge-graph edges.
	// 0 = default 4.
	MaxHops int `json:"max_hops,omitempty"`
	// PivotNode forces the decomposition pivot to this query node ID;
	// empty lets the cost model choose.
	PivotNode string `json:"pivot,omitempty"`
	// PruneVisited enables the paper's visited-set pruning: a much
	// smaller search space, but per-entity scores may come out below the
	// true optimum. Default false (exact).
	PruneVisited bool `json:"prune_visited,omitempty"`
	// NoHeuristic disables the m(u) estimate factor (the uninformed
	// best-first ablation). Default false.
	NoHeuristic bool `json:"no_heuristic,omitempty"`
	// TimeBound, when positive, selects the response-time-bounded mode
	// with this budget (a duration string like "50ms", or integer
	// nanoseconds). 0 selects the exact mode.
	TimeBound Duration `json:"time_bound,omitempty"`
	// AlertRatio is the time-bounded mode's r% in (0,1]: a search still
	// running at TimeBound*AlertRatio is cut and answers with its current
	// top. 0 = default 0.8. Ignored in the exact mode.
	AlertRatio float64 `json:"alert_ratio,omitempty"`
}

// Core converts the wire options into engine options.
func (o Options) Core() core.Options {
	return core.Options{
		K:            o.K,
		Tau:          o.Tau,
		MaxHops:      o.MaxHops,
		PivotNode:    o.PivotNode,
		PruneVisited: o.PruneVisited,
		NoHeuristic:  o.NoHeuristic,
		TimeBound:    time.Duration(o.TimeBound),
		AlertRatio:   o.AlertRatio,
	}
}

// OptionsFrom converts engine options into their wire form.
func OptionsFrom(o core.Options) Options {
	return Options{
		K:            o.K,
		Tau:          o.Tau,
		MaxHops:      o.MaxHops,
		PivotNode:    o.PivotNode,
		PruneVisited: o.PruneVisited,
		NoHeuristic:  o.NoHeuristic,
		TimeBound:    Duration(o.TimeBound),
		AlertRatio:   o.AlertRatio,
	}
}

// SearchRequest is the body of the service's search endpoints.
type SearchRequest struct {
	// Query is the query graph to answer.
	Query Query `json:"query"`
	// Options tunes the search; the zero value means engine defaults.
	Options Options `json:"options"`
}

// DecodeSearchRequest parses a request body strictly and returns the
// engine-level query and options. Neither is validated here.
func DecodeSearchRequest(r io.Reader) (*query.Graph, core.Options, error) {
	var req SearchRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, core.Options{}, fmt.Errorf("api: parsing search request: %w", err)
	}
	return req.Query.Graph(), req.Options.Core(), nil
}

// PathStep is the wire form of one knowledge-graph edge of an answer path.
type PathStep struct {
	// From is the source entity name, in the edge's stored direction
	// (path search ignores direction; the rendered fact reads one way).
	From string `json:"from"`
	// Predicate is the edge's stored predicate name.
	Predicate string `json:"predicate"`
	// To is the destination entity name.
	To string `json:"to"`
}

// SubMatch is the wire form of one sub-query's matched path.
type SubMatch struct {
	// PSS is the path semantic similarity ψ in (0,1] (Eq. 6 of the
	// paper); 1 means every edge matched its query predicate exactly.
	PSS float64 `json:"pss"`
	// Steps is the matched path, one entry per knowledge-graph edge.
	Steps []PathStep `json:"steps"`
}

// Answer is the wire form of one ranked answer.
type Answer struct {
	// Entity is the pivot entity's name — the answer itself.
	Entity string `json:"entity"`
	// Score is the match score (the sum of the parts' PSS, Eq. 2);
	// answers arrive in non-increasing score order.
	Score float64 `json:"score"`
	// Bindings maps query node IDs to the entity names they matched.
	Bindings map[string]string `json:"bindings,omitempty"`
	// Parts holds one matched path per sub-query graph.
	Parts []SubMatch `json:"parts,omitempty"`
}

// AnswerFrom converts an engine answer into its wire form.
func AnswerFrom(a core.Answer) Answer {
	out := Answer{Entity: a.PivotName, Score: a.Score, Bindings: a.Bindings}
	for _, p := range a.Parts {
		sm := SubMatch{PSS: p.PSS, Steps: make([]PathStep, len(p.Steps))}
		for i, st := range p.Steps {
			sm.Steps[i] = PathStep{From: st.FromName, Predicate: st.Predicate, To: st.ToName}
		}
		out.Parts = append(out.Parts, sm)
	}
	return out
}

// AnswersFrom converts a ranked answer slice into its wire form.
func AnswersFrom(answers []core.Answer) []Answer {
	out := make([]Answer, len(answers))
	for i, a := range answers {
		out[i] = AnswerFrom(a)
	}
	return out
}

// Result is the wire form of a search outcome.
type Result struct {
	// Answers is the ranked top-k (possibly fewer, possibly empty when a
	// query node matches nothing).
	Answers []Answer `json:"answers"`
	// Pivot is the query node the decomposition joined the answers at.
	Pivot string `json:"pivot,omitempty"`
	// Approximate is true when the time bound cut the search: the answers
	// are complete candidates at their exact scores, but may differ from
	// the exact top-k, and more budget refines them (Theorem 4).
	Approximate bool `json:"approximate,omitempty"`
	// Elapsed is the engine-side pipeline duration (a Go duration
	// string); queue and network time are not included.
	Elapsed Duration `json:"elapsed"`
	// Collected counts the matches each sub-query's stream delivered to
	// the assembly (time-bounded mode only).
	Collected []int `json:"collected,omitempty"`
}

// ResultFrom converts an engine result into its wire form.
func ResultFrom(r *core.Result) Result {
	out := Result{
		Answers:     AnswersFrom(r.Answers),
		Approximate: r.Approximate,
		Elapsed:     Duration(r.Elapsed),
		Collected:   r.Collected,
	}
	if r.Decomposition != nil {
		out.Pivot = r.Decomposition.Pivot
	}
	return out
}
