// Package shardwire defines the internal wire protocol between the
// scatter-gather coordinator (core.NewDistEngine) and shard servers
// (shard.Server, semkgd -serve-shard). See DESIGN.md, "Scatter-gather".
//
// Two routes:
//
//	GET  /v1/shard/meta    partition identity: which shard indexes this
//	                       server holds, their shape, and sampled
//	                       (global id, name) pairs so a coordinator can
//	                       reject stale shard snapshots
//	POST /v1/shard/search  one (shard, sub-query) search; the response is
//	                       an NDJSON stream of matches in non-increasing
//	                       pss order, ending in a terminal line
//
// The protocol preserves the sharded engine's global-resolution
// invariant: requests carry *base-graph* node ids and per-segment
// predicate-name→weight rows that were resolved once, globally, by the
// coordinator. The server only projects them into its shard-local id
// space — it never re-resolves semantics against its truncated
// vocabulary. Response matches are remapped back to base-graph ids
// before they leave the server, so every byte the coordinator merges is
// already in the one shared id space the k-way merger requires.
//
// Responses are deterministic for a given (shard snapshot, request): two replicas loaded from the same shard file stream
// byte-identical match sequences. The Offset field exploits that for
// mid-stream failover — a coordinator that lost a replica after
// consuming N matches resumes on another replica with Offset=N and the
// spliced stream is exactly the lost one's continuation.
package shardwire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Route paths served by a shard server.
const (
	PathMeta   = "/v1/shard/meta"
	PathSearch = "/v1/shard/search"
)

// Blueprint is one sub-query's searcher blueprint in global (base-graph)
// terms: φ anchor and end sets as base node ids, and one predicate-name →
// weight row per path segment. The coordinator compiles it once against
// the base graph; every shard server projects the same blueprint.
type Blueprint struct {
	// Anchors are φ(v1): the base ids of the sub-query's anchor entities.
	Anchors []uint32 `json:"anchors"`
	// EndSets[i] is φ of the (i+1)-th query node on the path: the base ids
	// a segment may end on. Sorted ascending for a canonical encoding.
	EndSets [][]uint32 `json:"end_sets"`
	// Rows[i] maps predicate name → edge weight for segment i, covering
	// every predicate of the coordinator's base graph. Name-keyed so the
	// server can project by its own predicate ids without any agreed
	// numbering; a shard predicate missing from the row is version skew
	// and rejects the request.
	Rows []map[string]float64 `json:"rows"`
}

// SearchRequest is the body of POST /v1/shard/search: one (shard,
// sub-query) search.
type SearchRequest struct {
	// Shard selects which of the server's shards runs the search.
	Shard int `json:"shard"`
	// Sub is the sub-query index, echoed for logging/attribution only.
	Sub int `json:"sub"`

	Blueprint

	// Tau, MaxHops, NoHeuristic and PruneVisited are the compile-relevant
	// search options, already validated and defaulted by the coordinator.
	Tau          float64 `json:"tau"`
	MaxHops      int     `json:"max_hops"`
	NoHeuristic  bool    `json:"no_heuristic,omitempty"`
	PruneVisited bool    `json:"prune_visited,omitempty"`

	// Offset skips the first Offset matches of the (deterministic) sorted
	// stream: the mid-stream failover resume point.
	Offset int `json:"offset,omitempty"`
}

// Validate rejects structurally bad requests before any search work.
func (r *SearchRequest) Validate() error {
	switch {
	case r.Shard < 0:
		return fmt.Errorf("shardwire: shard = %d out of range", r.Shard)
	case r.Sub < 0:
		return fmt.Errorf("shardwire: sub = %d out of range", r.Sub)
	case r.Tau <= 0 || r.Tau > 1:
		return fmt.Errorf("shardwire: tau = %v out of range (0,1]", r.Tau)
	case r.MaxHops < 1:
		return fmt.Errorf("shardwire: max_hops = %d out of range (must be >= 1)", r.MaxHops)
	case r.Offset < 0:
		return fmt.Errorf("shardwire: offset = %d out of range", r.Offset)
	case len(r.Rows) != len(r.EndSets):
		return fmt.Errorf("shardwire: %d weight rows for %d segments", len(r.Rows), len(r.EndSets))
	}
	return nil
}

// SearchStats mirrors astar.Stats on the wire: the shard's A* effort,
// carried on the terminal line for the coordinator's ShardEffort report.
type SearchStats struct {
	Popped  int `json:"popped"`
	Pushed  int `json:"pushed"`
	Pruned  int `json:"pruned"`
	Emitted int `json:"emitted"`
}

// Line is one NDJSON line of a search response. Match lines carry Nodes
// (always at least two — every match is a path of at least one edge), and
// terminal lines carry Done or Error; Terminal distinguishes them.
type Line struct {
	// Nodes, Edges, SegEnds and PSS are one match, in base-graph ids
	// (astar.Match remapped through the shard's global mappings).
	Nodes   []uint32 `json:"nodes,omitempty"`
	Edges   []uint32 `json:"edges,omitempty"`
	SegEnds []int    `json:"seg_ends,omitempty"`
	PSS     float64  `json:"pss,omitempty"`

	// Done marks the clean end of the stream: the search ran dry. Stats is
	// the shard's A* effort.
	Done  bool         `json:"done,omitempty"`
	Stats *SearchStats `json:"stats,omitempty"`

	// Error is a terminal server-side failure after the 200 header was
	// already committed (pre-header failures use plain HTTP status codes).
	Error string `json:"error,omitempty"`
}

// Terminal reports whether the line ends the stream.
func (l *Line) Terminal() bool { return l.Done || l.Error != "" }

// Validate rejects lines a coordinator could not safely merge: a line is
// either terminal and matchless, or one well-formed match — a path of at
// least one edge whose segment ends index into it. The coordinator reads
// End() and the SegEnds positions of every match it gathers, so a
// malformed line from a skewed or broken server must fail the stream
// here, not panic the assembly.
func (l *Line) Validate() error {
	if l.Terminal() {
		if len(l.Nodes) != 0 || len(l.Edges) != 0 || len(l.SegEnds) != 0 {
			return fmt.Errorf("shardwire: terminal line carries a match")
		}
		return nil
	}
	if len(l.Nodes) < 2 || len(l.Edges) != len(l.Nodes)-1 {
		return fmt.Errorf("shardwire: match line with %d nodes and %d edges is not a path", len(l.Nodes), len(l.Edges))
	}
	prev := 0
	for _, pos := range l.SegEnds {
		if pos <= prev || pos >= len(l.Nodes) {
			return fmt.Errorf("shardwire: segment end %d out of order or outside the %d-node path", pos, len(l.Nodes))
		}
		prev = pos
	}
	if prev != len(l.Nodes)-1 {
		return fmt.Errorf("shardwire: last segment ends at %d, not at the path's end %d", prev, len(l.Nodes)-1)
	}
	if !(l.PSS > 0 && l.PSS <= 1) {
		return fmt.Errorf("shardwire: pss = %v out of range (0,1]", l.PSS)
	}
	return nil
}

// Sample is one (base id, name) probe of a shard's node mapping.
type Sample struct {
	ID   uint32 `json:"id"`
	Name string `json:"name"`
}

// ShardInfo describes one shard a server holds.
type ShardInfo struct {
	// Index and Shards identify the shard within its partition; Halo is
	// the replication radius it was built with (bounds servable MaxHops).
	Index  int `json:"index"`
	Shards int `json:"shards"`
	Halo   int `json:"halo"`
	// Nodes, Edges and Owned describe the shard graph.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	Owned int `json:"owned"`
	// MaxGlobalNode is the largest base id the shard maps; a coordinator
	// whose base graph is smaller is serving a different (or newer) world.
	MaxGlobalNode uint32 `json:"max_global_node"`
	// Samples are evenly spaced probes of the node mapping: the
	// coordinator cross-checks names against its base graph to reject
	// stale shard snapshots without shipping the whole mapping.
	Samples []Sample `json:"samples"`
}

// Meta is the GET /v1/shard/meta response.
type Meta struct {
	Shards []ShardInfo `json:"shards"`
}

// DecodeSearchRequest parses and validates a request body. Unknown
// fields and anything after the one JSON object are rejected: the
// protocol is internal and version skew should fail loudly, not truncate
// semantics silently.
func DecodeSearchRequest(r io.Reader) (*SearchRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req SearchRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("shardwire: parsing search request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("shardwire: trailing data after the search request")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// EncodeLine renders one response line (without the trailing newline).
func EncodeLine(l Line) ([]byte, error) { return json.Marshal(l) }

// LineReader reads NDJSON response lines.
type LineReader struct {
	sc *bufio.Scanner
}

// maxLineBytes bounds one response line. Matches are short (MaxHops
// segments), but terminal error strings and future growth get headroom.
const maxLineBytes = 4 << 20

// NewLineReader wraps a response body.
func NewLineReader(r io.Reader) *LineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 16*1024), maxLineBytes)
	return &LineReader{sc: sc}
}

// Next returns the next line, validated (Line.Validate). io.EOF after the
// last line; a stream that ends without a terminal line is the caller's
// signal of truncation.
func (lr *LineReader) Next() (Line, error) {
	for lr.sc.Scan() {
		b := lr.sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var l Line
		if err := json.Unmarshal(b, &l); err != nil {
			return Line{}, fmt.Errorf("shardwire: parsing response line: %w", err)
		}
		if err := l.Validate(); err != nil {
			return Line{}, err
		}
		return l, nil
	}
	if err := lr.sc.Err(); err != nil {
		return Line{}, err
	}
	return Line{}, io.EOF
}
