// Shard server: the process boundary of the distributed scatter-gather
// pipeline (semkgd -serve-shard). A Server holds one or more loaded
// shards and answers per-(shard, sub-query) searches over the
// shardwire protocol; the coordinator (an engine from
// core.NewDistEngine) is its only intended client. See DESIGN.md, "Scatter-gather".
//
// The server is deliberately dumb: it projects a globally-resolved
// blueprint into its shard's id space (Shard.Project) and streams the
// very local Source the in-process sharded engine would have pulled from
// directly. All semantics — decomposition, φ matching, predicate
// resolution, merging, TA assembly — stay on the coordinator, which is
// how the cross-process pipeline inherits the in-process one's
// exactness proof unchanged.

package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"semkg/internal/astar"
	"semkg/internal/kg"
	"semkg/internal/shardwire"
)

// metaSamples is how many (id, name) probes Meta exposes per shard for
// the coordinator's stale-snapshot check.
const metaSamples = 16

// ServerStats counts a shard server's traffic, exported by semkgd under
// the "semkgd_shardserver" expvar key.
type ServerStats struct {
	// Shards lists the shard indexes this server holds.
	Shards []int `json:"shards"`
	// Searches counts accepted /v1/shard/search requests; Matches counts
	// match lines streamed; Errors counts rejected or failed requests.
	Searches uint64 `json:"searches"`
	Matches  uint64 `json:"matches"`
	Errors   uint64 `json:"errors"`
}

// Server answers shardwire searches over a set of loaded shards. Safe
// for concurrent use; every request builds fresh searcher state.
type Server struct {
	byIndex map[int]*Shard
	indexes []int

	searches atomic.Uint64
	matches  atomic.Uint64
	errors   atomic.Uint64
}

// NewServer wraps the given shards (typically loaded via ReadShard).
// The shards must come from one partition: same total shard count and
// halo, distinct indexes. One process may serve any subset of a
// partition — replicas of the same shard run in different processes.
func NewServer(shards ...*Shard) (*Server, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: server needs at least one shard")
	}
	s := &Server{byIndex: make(map[int]*Shard, len(shards))}
	for _, sh := range shards {
		if sh.Shards != shards[0].Shards || sh.Halo != shards[0].Halo {
			return nil, fmt.Errorf("shard: shard %d (of %d, halo %d) and shard %d (of %d, halo %d) are from different partitions",
				sh.Index, sh.Shards, sh.Halo, shards[0].Index, shards[0].Shards, shards[0].Halo)
		}
		if _, dup := s.byIndex[sh.Index]; dup {
			return nil, fmt.Errorf("shard: duplicate shard index %d", sh.Index)
		}
		s.byIndex[sh.Index] = sh
		s.indexes = append(s.indexes, sh.Index)
	}
	return s, nil
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Shards:   append([]int(nil), s.indexes...),
		Searches: s.searches.Load(),
		Matches:  s.matches.Load(),
		Errors:   s.errors.Load(),
	}
}

// Handler returns the server's routing table (the shardwire routes
// only; semkgd adds /healthz and /debug/vars around it).
func (s *Server) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+shardwire.PathMeta, s.handleMeta)
	mux.HandleFunc("POST "+shardwire.PathSearch, s.handleSearch)
	return mux
}

// Meta describes the held shards for coordinator validation.
func (s *Server) Meta() shardwire.Meta {
	var m shardwire.Meta
	for _, idx := range s.indexes {
		sh := s.byIndex[idx]
		info := shardwire.ShardInfo{
			Index:  sh.Index,
			Shards: sh.Shards,
			Halo:   sh.Halo,
			Nodes:  sh.Graph.NumNodes(),
			Edges:  sh.Graph.NumEdges(),
			Owned:  sh.ownedCount,
		}
		if n := len(sh.nodeGlobal); n > 0 {
			info.MaxGlobalNode = uint32(sh.nodeGlobal[n-1])
			step := n / metaSamples
			if step < 1 {
				step = 1
			}
			for l := 0; l < n; l += step {
				info.Samples = append(info.Samples, shardwire.Sample{
					ID:   uint32(sh.nodeGlobal[l]),
					Name: sh.Graph.NodeName(kg.NodeID(l)),
				})
			}
		}
		m.Shards = append(m.Shards, info)
	}
	return m
}

func (s *Server) handleMeta(w http.ResponseWriter, _ *http.Request) {
	writeWireJSON(w, http.StatusOK, s.Meta())
}

// handleSearch runs one (shard, sub-query) search and streams the sorted
// matches as NDJSON. Pre-search failures are plain HTTP errors; failures
// after the 200 header surface as a terminal {"error": ...} line.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	req, err := shardwire.DecodeSearchRequest(r.Body)
	if err != nil {
		s.errors.Add(1)
		writeWireJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	sh, ok := s.byIndex[req.Shard]
	if !ok {
		s.errors.Add(1)
		writeWireJSON(w, http.StatusNotFound, map[string]string{
			"error": fmt.Sprintf("shard: this server does not hold shard %d (holds %v)", req.Shard, s.indexes)})
		return
	}
	if req.MaxHops > sh.Halo {
		s.errors.Add(1)
		writeWireJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("shard: max_hops %d exceeds the partition halo %d", req.MaxHops, sh.Halo)})
		return
	}

	proj, err := sh.Project(&req.Blueprint)
	if err != nil {
		s.errors.Add(1)
		writeWireJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	s.searches.Add(1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	out := &lineWriter{w: w}
	out.flusher, _ = w.(http.Flusher)

	if proj == nil {
		// This shard cannot contribute matches; the empty stream is
		// complete.
		out.line(shardwire.Line{Done: true, Stats: &shardwire.SearchStats{}})
		return
	}
	src, err := sh.NewSource(proj, astar.Options{
		Tau:          req.Tau,
		MaxHops:      req.MaxHops,
		NoHeuristic:  req.NoHeuristic,
		PruneVisited: req.PruneVisited,
	})
	if err != nil {
		s.errors.Add(1)
		out.line(shardwire.Line{Error: err.Error()})
		return
	}
	if !s.stream(r, out, src, req.Offset) {
		return // client gone or cancelled: no terminal line
	}
	st := shardwire.SearchStats(src.Stats())
	out.line(shardwire.Line{Done: true, Stats: &st})
}

// stream streams the source's sorted match sequence, skipping the
// first offset matches (the deterministic failover resume), flushing per
// line so the coordinator's demand-driven merge sees matches as they
// surface. It reports whether the sequence was streamed to its end.
func (s *Server) stream(r *http.Request, out *lineWriter, src *Source, offset int) bool {
	ctx := r.Context()
	for skipped := 0; ctx.Err() == nil; {
		m, ok := src.Next()
		if !ok {
			return true
		}
		if skipped < offset {
			skipped++
			continue
		}
		if !out.line(matchLine(m)) {
			return false
		}
		s.matches.Add(1)
	}
	return false
}

// matchLine renders a base-id match as its wire line.
func matchLine(m astar.Match) shardwire.Line {
	l := shardwire.Line{
		Nodes:   make([]uint32, len(m.Nodes)),
		Edges:   make([]uint32, len(m.Edges)),
		SegEnds: m.SegEnds,
		PSS:     m.PSS,
	}
	for i, u := range m.Nodes {
		l.Nodes[i] = uint32(u)
	}
	for i, e := range m.Edges {
		l.Edges[i] = uint32(e)
	}
	return l
}

// lineWriter streams NDJSON lines with a per-line flush.
type lineWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher // nil when w cannot flush
}

func (lw *lineWriter) line(l shardwire.Line) bool {
	b, err := shardwire.EncodeLine(l)
	if err != nil {
		return false
	}
	if _, err := lw.w.Write(append(b, '\n')); err != nil {
		return false
	}
	if lw.flusher != nil {
		lw.flusher.Flush()
	}
	return true
}

func writeWireJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past this point mean the client is gone.
	_ = json.NewEncoder(w).Encode(v)
}
