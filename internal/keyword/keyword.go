// Package keyword is the keyword-search front end: it turns a bag of bare
// keywords ("design engine italy") into executable query graphs and blends
// their answers — the workload of the paper's millions of non-expert
// users, who do not write structured query docs or SPARQL.
//
// The pipeline follows "Keyword Search on RDF Graphs — A Query Graph
// Assembly Approach" (see PAPERS.md), adapted to this engine:
//
//  1. Tokenize: the input is normalized with the identical strutil rules
//     the kg name indexes were built with, and adjacent tokens are greedily
//     fused when the fused form hits an index exactly ("new york" →
//     "new_york").
//  2. Match: each keyword maps to candidate graph elements — entities and
//     types through the exact/prefix/initials name indexes
//     (kg.NodesByNormName and friends, never an O(|V|) scan), predicates
//     by normalized name over the small predicate vocabulary.
//  3. Assemble: small connection structures joining the keyword matches
//     are enumerated — stars around a focus target node, per-entity
//     attachments of one or two hops (typed intermediates), and a chain of
//     additional target types — each a well-formed, decomposable query
//     graph (trial-decomposed before it is emitted).
//  4. Score: match quality × structural evidence × selectivity, all
//     computed from the graph's own statistics (PredCount, Degree, type
//     cardinalities); see DESIGN.md, "Query-graph assembly".
//  5. Execute and blend: the top-B candidates run concurrently through
//     the serving layer (each candidate is one serving request, so result
//     caching, singleflight and admission control all apply) and the
//     per-candidate top-k lists blend into one deduplicated ranking via
//     blendRanked with a deterministic tie-break.
//
// Frontend is the serving-side entry point and keeps no cache of its own;
// Assemble and Suggest are usable standalone (kgbench measures assembly
// without a server).
package keyword

import "semkg/internal/core"

// Assembly and execution bounds. Each keeps assembly latency
// index-shaped (microseconds, never a graph scan).
const (
	// defaultCandidates is B: how many top-scored candidate query graphs
	// execute per request when the request does not set max_candidates.
	defaultCandidates = 3
	// maxExecuted caps B whatever the request asks.
	maxExecuted = 16
	// maxInterps caps the interpretations kept per keyword after ranking.
	maxInterps = 4
	// maxEnumerated caps the assembled candidates kept after scoring.
	maxEnumerated = 24
	// maxCombos caps the interpretation combinations explored.
	maxCombos = 64
	// evidenceNodes caps the matched entities inspected per keyword when
	// gathering connection evidence.
	evidenceNodes = 8
	// evidenceScan caps the adjacency halves scanned per inspected entity.
	evidenceScan = 256
)

// normalizedScore maps an engine answer score (a sum of per-sub-query PSS
// values, each in (0,1]) back into (0,1] so answers from candidates with
// different sub-query counts blend on one scale.
func normalizedScore(a core.Answer) float64 {
	if len(a.Parts) == 0 {
		return a.Score
	}
	return a.Score / float64(len(a.Parts))
}
