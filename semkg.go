// Package semkg is a semantic-guided, response-time-bounded top-k
// similarity search engine for knowledge graphs — a from-scratch Go
// reproduction of Wang et al., "Semantic Guided and Response Times Bounded
// Top-k Similarity Search over Knowledge Graphs" (ICDE 2020).
//
// The engine answers *query graphs* (entities and typed variables connected
// by predicates) over a knowledge graph. Instead of requiring exact
// structural matches, it embeds the graph's predicates (TransE), weights
// knowledge-graph edges by their semantic similarity to the query edges
// (the semantic graph SG_Q), and runs an A* search that returns the top-k
// answers by path semantic similarity — so a query edge "product" also
// finds "assembly" paths, and a 1-hop query edge matches n-hop schemas
// such as manufacturer→company→locationCountry.
//
// # Quick start
//
//	g, _ := semkg.LoadTriples(file)                         // or kg via BuildGraph
//	model, _ := semkg.Train(ctx, g, semkg.TrainConfig{})    // offline, once
//	eng, _ := semkg.NewEngine(g, model, nil)
//	res, _ := eng.Search(ctx, &semkg.Query{
//	    Nodes: []semkg.QueryNode{
//	        {ID: "car", Type: "Automobile"},
//	        {ID: "c", Name: "Germany", Type: "Country"},
//	    },
//	    Edges: []semkg.QueryEdge{{From: "car", To: "c", Predicate: "assembly"}},
//	}, semkg.Options{K: 10})
//
// For interactive use, set Options.TimeBound to bound the response time
// (Section VI of the paper): a search still running at the deadline is
// cut and answers with the complete candidates found so far, at their
// exact scores, flagged approximate; the result converges to the exact
// top-k as the budget grows. NewServing wraps an engine in caches and
// admission control.
package semkg

import (
	"context"
	"io"

	"semkg/internal/core"
	"semkg/internal/embed"
	"semkg/internal/keyword"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/serve"
	"semkg/internal/transform"
)

// Graph is an immutable knowledge graph. Build one with NewGraphBuilder or
// LoadTriples.
type Graph = kg.Graph

// GraphBuilder assembles a Graph.
type GraphBuilder = kg.Builder

// NewGraphBuilder returns an empty builder with capacity hints.
func NewGraphBuilder(nodeHint, edgeHint int) *GraphBuilder {
	return kg.NewBuilder(nodeHint, edgeHint)
}

// LoadTriples parses a graph from the tab-separated triple format
// ("subject\tpredicate\tobject"; the reserved predicate "type" declares an
// entity type, first type wins).
func LoadTriples(r io.Reader) (*Graph, error) { return kg.ReadTriples(r) }

// SaveTriples serializes a graph in the format accepted by LoadTriples.
func SaveTriples(w io.Writer, g *Graph) error { return kg.WriteTriples(w, g) }

// SaveSnapshot serializes a graph in the versioned, checksummed binary
// snapshot format: the built graph with its derived search indexes, which
// LoadSnapshot reads back an order of magnitude faster than LoadTriples
// re-parses (see DESIGN.md, "Storage layer").
func SaveSnapshot(w io.Writer, g *Graph) error { return kg.WriteSnapshot(w, g) }

// LoadSnapshot reads a graph written by SaveSnapshot. Malformed input
// yields typed errors (kg.ErrSnapshotTruncated and friends), never a
// panic.
func LoadSnapshot(r io.Reader) (*Graph, error) { return kg.ReadSnapshot(r) }

// LoadGraph reads a graph in either storage format, sniffing the snapshot
// magic: binary snapshots go through LoadSnapshot, anything else through
// LoadTriples.
func LoadGraph(r io.Reader) (*Graph, error) { return kg.ReadGraph(r) }

// Delta accumulates AddNode/AddEdge/SetType/ApplyTriple mutations against
// an immutable base graph; Commit materializes a new immutable graph with
// only the affected index buckets patched. Mutators return errors (never
// panic), making Delta the construction surface for untrusted input.
type Delta = kg.Delta

// NewDelta opens an empty delta over base. Commit the delta and pass the
// result to a new engine — or hand the delta to Serving.Apply, which
// commits, rebuilds and swaps generations in one step.
func NewDelta(base *Graph) *Delta { return kg.NewDelta(base) }

// Query is a query graph: entities (specific nodes, Name set) and typed
// variables (target nodes, Name empty) connected by predicate edges.
type Query = query.Graph

// QueryNode is one query-graph node.
type QueryNode = query.Node

// QueryEdge is one query-graph edge.
type QueryEdge = query.Edge

// TrainConfig controls the offline TransE embedding.
type TrainConfig = embed.Config

// Model holds trained embeddings; persist with SaveModel/LoadModel.
type Model = embed.Model

// Train learns a TransE embedding of g's predicates and entities (the
// offline phase of the paper's pipeline, Fig. 5).
func Train(ctx context.Context, g *Graph, cfg TrainConfig) (*Model, error) {
	return embed.TrainTransE(ctx, g, cfg)
}

// TrainTransH learns the TransH variant instead (hyperplane projections;
// useful when relations are strongly one-to-many).
func TrainTransH(ctx context.Context, g *Graph, cfg TrainConfig) (*Model, error) {
	return embed.TrainTransH(ctx, g, cfg)
}

// SaveModel writes a model in a compact binary format.
func SaveModel(w io.Writer, m *Model) error { return embed.WriteModel(w, m) }

// LoadModel reads a model written by SaveModel.
func LoadModel(r io.Reader) (*Model, error) { return embed.ReadModel(r) }

// Library is a synonym/abbreviation dictionary used to match query node
// names and types against the graph (the paper's transformation library).
type Library = transform.Library

// NewLibrary returns an empty Library.
func NewLibrary() *Library { return transform.NewLibrary() }

// Options configures a search; see the fields of core.Options. The zero
// value means top-10, τ = 0.8, n̂ = 4, minCost pivot, exact (unbounded)
// mode. Options.Validate reports out-of-range values explicitly.
type Options = core.Options

// Answer is one ranked answer with its matched paths and variable bindings.
type Answer = core.Answer

// Result is a search outcome.
type Result = core.Result

// Stream is a running search emitting typed events; see Engine.Stream.
type Stream = core.Stream

// Event is one stream notification; the concrete types are ProgressEvent,
// TopKEvent, PhaseEvent and ResultEvent.
type Event = core.Event

// EventKind discriminates stream events.
type EventKind = core.EventKind

// Stream event kinds.
const (
	KindProgress = core.KindProgress
	KindTopK     = core.KindTopK
	KindPhase    = core.KindPhase
	KindResult   = core.KindResult
)

// ProgressEvent reports per-sub-query search progress.
type ProgressEvent = core.ProgressEvent

// TopKEvent is a provisional top-k snapshot with TA lower/upper bounds.
type TopKEvent = core.TopKEvent

// PhaseEvent marks a pipeline phase transition (search/alert/assemble).
type PhaseEvent = core.PhaseEvent

// ResultEvent is the terminal event carrying the final Result.
type ResultEvent = core.ResultEvent

// Phase names a pipeline stage for PhaseEvent.
type Phase = core.Phase

// Pipeline phases.
const (
	PhaseSearch   = core.PhaseSearch
	PhaseAlert    = core.PhaseAlert
	PhaseAssemble = core.PhaseAssemble
)

// Serving is the engine-level serving layer for heavy concurrent traffic:
// an LRU result cache, shared sub-query searches, singleflight
// deduplication of concurrent identical requests, and a bounded worker
// pool with deadline-aware admission control. Wrap an engine with NewServing and
// route traffic through Serving.Search/Stream; see the semkgd command for
// the HTTP form.
type Serving = serve.Engine

// ServeConfig sizes the serving layer (caches, workers, queue). The zero
// value gives production-ready defaults.
type ServeConfig = serve.Config

// ServeStats is a snapshot of the serving layer's cache, dedup and
// admission counters.
type ServeStats = serve.Stats

// OverloadedError is returned by a Serving engine when admission control
// sheds a request; RetryAfter is the projected wait until a worker frees
// up (HTTP front ends map it to 429/Retry-After).
type OverloadedError = serve.OverloadedError

// ApplyInfo describes a completed Serving.Apply: mutation counts, the
// committed graph's totals, the new generation and commit/build timings.
type ApplyInfo = serve.ApplyInfo

// ErrStaleDelta is returned by Serving.Apply for a delta whose base graph
// was superseded by a newer generation; re-open the delta with
// Serving.NewDelta and re-apply the mutations.
var ErrStaleDelta = serve.ErrStaleDelta

// ServeStream is a serving-layer event stream: live — the pipeline run's
// own events — for the request that started the run, settled — one
// ResultEvent carrying the shared result — for a cache hit or a dedup
// follower.
type ServeStream = serve.Stream

// BatchItem is one query of a batch handed to Serving.SearchBatch: the
// query graph and its effective options.
type BatchItem = serve.BatchItem

// BatchOutcome is one batch query's result or error, positionally
// aligned with the items passed to Serving.SearchBatch. A batch is
// answer-equivalent to issuing its items separately — the group only
// shares compilation and overlapping sub-query searches, never results
// it shouldn't.
type BatchOutcome = serve.BatchOutcome

// NewServing wraps an engine in a serving layer sized by cfg. The zero
// ServeConfig gives production-ready defaults.
func NewServing(e *Engine, cfg ServeConfig) *Serving { return serve.New(e, cfg) }

// KeywordFrontend turns bare keywords into ranked answers: it tokenizes
// the input, maps keywords to graph elements through the name indexes,
// assembles candidate query graphs, executes the best candidates
// concurrently through a Serving engine, and blends the per-candidate
// top-k into one entity-deduplicated ranking. Create one with
// NewKeywordFrontend; it also answers autocomplete via Suggest without
// running any search.
type KeywordFrontend = keyword.Frontend

// KeywordResponse is a blended keyword-search outcome: the assembly, the
// executed candidate runs, and the blended answers.
type KeywordResponse = keyword.Response

// KeywordAnswer is one blended answer with its source candidate index.
type KeywordAnswer = keyword.RankedAnswer

// KeywordAssembly is the query-graph-assembly outcome alone: tokens,
// unmatched keywords, and scored candidate queries.
type KeywordAssembly = keyword.Assembly

// KeywordCandidate is one assembled candidate query with its score and
// explanation.
type KeywordCandidate = keyword.Candidate

// KeywordEvent is one event of a streaming keyword search: the assembly,
// a candidate-attributed engine event, or the final blended response.
type KeywordEvent = keyword.Event

// Suggestion is one autocomplete completion for a keyword fragment.
type Suggestion = keyword.Suggestion

// Suggestions is an ordered completion set for one fragment.
type Suggestions = keyword.Suggestions

// NewKeywordFrontend wraps a Serving engine with the keyword front end.
// The front end keeps no cache of its own: a repeated keyword request
// assembles again and its candidates hit the Serving engine's caches.
func NewKeywordFrontend(s *Serving) *KeywordFrontend { return keyword.New(s) }

// AssembleKeywords runs query-graph assembly alone — tokenize, match,
// enumerate, score — without executing anything. Useful for inspecting
// what a keyword input would ask.
func AssembleKeywords(g *Graph, input string) *KeywordAssembly {
	return keyword.Assemble(g, input)
}

// Engine answers query graphs over one knowledge graph. Safe for
// concurrent use.
type Engine = core.Engine

// Plan is a compiled query (Engine.Compile): reusable across runs with any
// K or time budget (Engine.SearchPlan, Engine.StreamPlan), but only by the
// engine that compiled it.
type Plan = core.Plan

// NewEngine builds an engine from a graph, a trained model, and an
// optional library (nil = identical matching plus heuristic
// abbreviations). Predicates the model has never seen (live ingestion
// after training) get deterministic placeholder vectors.
func NewEngine(g *Graph, model *Model, lib *Library) (*Engine, error) {
	return core.BuildEngine(g, model, lib)
}

// NewEngineFromSnapshot builds an engine directly from a binary graph
// snapshot (SaveSnapshot): the fast cold-start path — the snapshot
// already carries the derived search indexes.
func NewEngineFromSnapshot(r io.Reader, model *Model, lib *Library) (*Engine, error) {
	return core.EngineFromSnapshot(r, model, lib)
}
