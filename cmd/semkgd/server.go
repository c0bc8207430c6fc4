package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"

	"semkg/internal/api"
	"semkg/internal/core"
	"semkg/internal/keyword"
	"semkg/internal/query"
	"semkg/internal/serve"
)

// Service counters, exported through expvar (GET /debug/vars). The serving
// layer's own counters (caches, singleflight, admission) are published
// under "semkgd_serve"; see serve.Stats for the fields.
var (
	statSearches      = expvar.NewInt("semkgd_searches_total")
	statStreams       = expvar.NewInt("semkgd_streams_total")
	statStreamEvents  = expvar.NewInt("semkgd_stream_events_total")
	statBadRequests   = expvar.NewInt("semkgd_bad_requests_total")
	statOverloaded    = expvar.NewInt("semkgd_overloaded_total")
	statErrors        = expvar.NewInt("semkgd_errors_total")
	statIngests       = expvar.NewInt("semkgd_ingests_total")
	statIngestTriples = expvar.NewInt("semkgd_ingest_triples_total")
	statKeywords      = expvar.NewInt("semkgd_keywords_total")
	statSuggests      = expvar.NewInt("semkgd_suggests_total")

	// currentServe backs the semkgd_serve expvar; newMuxReplicated swaps
	// it so httptest servers observe their own serving layer.
	currentServe atomic.Pointer[serve.Engine]
	// currentKeyword backs the semkgd_keyword expvar the same way.
	currentKeyword atomic.Pointer[keyword.Frontend]
)

func init() {
	expvar.Publish("semkgd_serve", expvar.Func(func() any {
		if s := currentServe.Load(); s != nil {
			return s.Stats()
		}
		return nil
	}))
	expvar.Publish("semkgd_keyword", expvar.Func(func() any {
		if f := currentKeyword.Load(); f != nil {
			return f.Stats()
		}
		return nil
	}))
}

// defaultMaxIngestBytes caps one /v1/ingest request body: the whole
// batch accumulates in one in-memory delta before it commits, so an
// unbounded body would let a single request exhaust the process.
const defaultMaxIngestBytes = 64 << 20

// server routes search traffic onto one serving engine.
type server struct {
	srv *serve.Engine
	// kw is the keyword front end over srv (query-graph assembly,
	// blending, autocomplete).
	kw *keyword.Frontend
	// maxIngestBytes bounds one ingest request body; <= 0 disables the
	// cap.
	maxIngestBytes int64
	// repl is the node's replication role.
	repl *replState
}

// newMuxReplicated builds the service's routing table:
//
//	POST /v1/search     batch search, JSON result (429 when shed)
//	POST /v1/batch      grouped search: N queries, shared sub-searches;
//	                    JSON per-query results, or tagged NDJSON with
//	                    ?stream=1
//	POST /v1/stream     streaming search, NDJSON events (429 when shed)
//	POST /v1/keyword    keyword search: query-graph assembly + blended
//	                    top-k; JSON result, or NDJSON with ?stream=1
//	GET  /v1/suggest    autocomplete over the name indexes (?q=, ?limit=)
//	POST /v1/ingest     NDJSON triples, batched delta commit (409 when
//	                    racing another commit; 403 on a follower)
//	GET  /v1/replicate  NDJSON replication stream (primaries only)
//	POST /v1/promote    flip a follower to primary (warm failover)
//	GET  /healthz       liveness + graph shape + generation + replication
//	GET  /debug/vars    expvar counters
//
// maxIngestBytes caps one ingest body (<= 0 disables the cap); repl is
// the node's replication role, which semkgd always wires.
func newMuxReplicated(srv *serve.Engine, maxIngestBytes int64, repl *replState) *http.ServeMux {
	currentServe.Store(srv)
	currentRepl.Store(repl)
	publishReplicaStats()
	kw := keyword.New(srv)
	currentKeyword.Store(kw)
	s := &server{srv: srv, kw: kw, maxIngestBytes: maxIngestBytes, repl: repl}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/stream", s.handleStream)
	mux.HandleFunc("POST /v1/keyword", s.handleKeyword)
	mux.HandleFunc("GET /v1/suggest", s.handleSuggest)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("GET /v1/replicate", s.handleReplicate)
	mux.HandleFunc("POST /v1/promote", s.handlePromote)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// decodeRequest parses and validates a search request. A non-nil error has
// already been written to w as a 400.
func (s *server) decodeRequest(w http.ResponseWriter, r *http.Request) (ok bool, q *query.Graph, opts core.Options) {
	g, opts, err := api.DecodeSearchRequest(r.Body)
	if err != nil {
		s.badRequest(w, err)
		return false, nil, opts
	}
	if err := g.Validate(); err != nil {
		s.badRequest(w, err)
		return false, nil, opts
	}
	if err := opts.Validate(); err != nil {
		s.badRequest(w, err)
		return false, nil, opts
	}
	return true, g, opts
}

func (s *server) badRequest(w http.ResponseWriter, err error) {
	statBadRequests.Add(1)
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
}

// searchError classifies a serving-layer error: caller-caused errors
// (core.BadRequestError) are 400s, admission shedding (OverloadedError) is
// a 429 with a Retry-After header, everything else is a 500.
func (s *server) searchError(w http.ResponseWriter, err error) {
	var bad core.BadRequestError
	if errors.As(err, &bad) {
		s.badRequest(w, err)
		return
	}
	var over *serve.OverloadedError
	if errors.As(err, &over) {
		statOverloaded.Add(1)
		// Retry-After is whole seconds, rounded up so clients never retry
		// before the projected wait has elapsed.
		secs := int64((over.RetryAfter + 999_999_999) / 1_000_000_000)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{
			"error":       err.Error(),
			"retry_after": strconv.FormatInt(secs, 10),
		})
		return
	}
	statErrors.Add(1)
	writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	ok, q, opts := s.decodeRequest(w, r)
	if !ok {
		return
	}
	statSearches.Add(1)
	res, err := s.srv.Search(r.Context(), q, opts)
	if err != nil {
		s.searchError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.ResultFrom(res))
}

func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	ok, q, opts := s.decodeRequest(w, r)
	if !ok {
		return
	}
	statStreams.Add(1)
	// r.Context() makes a dropped client cancel its participation; the
	// underlying pipeline is cancelled only when no other request shares
	// it. Admission shedding surfaces here, before the 200 header.
	st, err := s.srv.Stream(r.Context(), q, opts)
	if err != nil {
		s.searchError(w, err)
		return
	}
	writeNDJSON(w, st.Events(), api.EncodeEvent)
}

// writeNDJSON answers 200 with an NDJSON body: one encoded, flushed line
// per item until items closes. It returns on the first failed write —
// the client is gone, and the request context, cancelled when the
// handler returns, stops whatever feeds items.
func writeNDJSON[T any](w http.ResponseWriter, items <-chan T, encode func(T) ([]byte, error)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // defeat reverse-proxy buffering
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for it := range items {
		line, err := encode(it)
		if err != nil {
			statErrors.Add(1)
			continue
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return
		}
		statStreamEvents.Add(1)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleKeyword answers POST /v1/keyword: keywords assemble into
// candidate query graphs, the top candidates execute through the serving
// layer (caching, singleflight and admission control all apply per
// candidate), and the per-candidate top-k lists blend into one
// deduplicated ranking. ?stream=1 upgrades the response to NDJSON: an
// assembly event, interleaved engine events tagged with their candidate,
// and a terminal blended result.
func (s *server) handleKeyword(w http.ResponseWriter, r *http.Request) {
	req, err := api.DecodeKeywordRequest(r.Body)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	statKeywords.Add(1)
	if v := r.URL.Query().Get("stream"); v != "" && v != "0" && v != "false" {
		s.streamKeyword(w, r, req)
		return
	}
	resp, err := s.kw.Search(r.Context(), req.Keywords, req.Options.Core(), req.MaxCandidates)
	if err != nil {
		s.searchError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, keyword.WireResult(resp))
}

// streamKeyword is the NDJSON variant of handleKeyword.
func (s *server) streamKeyword(w http.ResponseWriter, r *http.Request, req api.KeywordRequest) {
	ch, err := s.kw.Stream(r.Context(), req.Keywords, req.Options.Core(), req.MaxCandidates)
	if err != nil {
		s.searchError(w, err)
		return
	}
	statStreams.Add(1)
	writeNDJSON(w, ch, keyword.EncodeEvent)
}

// handleSuggest answers GET /v1/suggest?q=frag&limit=N: autocomplete
// straight from the name/initials/prefix indexes. It never runs a search.
func (s *server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		s.badRequest(w, fmt.Errorf("missing required query parameter %q", "q"))
		return
	}
	limit := 0
	if l := r.URL.Query().Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			s.badRequest(w, fmt.Errorf("bad limit %q (must be a non-negative integer)", l))
			return
		}
		limit = n
	}
	statSuggests.Add(1)
	writeJSON(w, http.StatusOK, keyword.WireSuggestions(s.kw.Suggest(q, limit)))
}

// handleIngest applies one NDJSON batch of triples as a single delta
// commit: every line parses and validates before anything is published,
// so a malformed line rejects the whole batch (400) and the served graph
// is unchanged. A successful batch swaps the engine generation exactly
// once, however many triples it carries. A concurrent commit that
// supersedes this one's base graph is a 409 — the client re-sends the
// batch, which then applies against the newer generation.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	statIngests.Add(1)
	// Followers are read replicas: their graph is the primary's, applied
	// through the replication stream. Direct writes would fork it.
	primary := s.repl.currentPrimary()
	if primary == nil {
		writeJSON(w, http.StatusForbidden, map[string]string{
			"error": "read-only follower; ingest on the primary"})
		return
	}
	if s.maxIngestBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxIngestBytes)
	}
	d := s.srv.NewDelta()
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo, triples := 0, 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		tr, err := api.DecodeIngestTriple(line)
		if err != nil {
			// A body-size overrun truncates the final line, which then
			// fails to parse; report the cap, not the parse artifact.
			if s.ingestTooLarge(w, sc) {
				return
			}
			s.badRequest(w, fmt.Errorf("line %d: %w", lineNo, err))
			return
		}
		if err := d.ApplyTriple(tr.S, tr.P, tr.O); err != nil {
			s.badRequest(w, fmt.Errorf("line %d: %w", lineNo, err))
			return
		}
		triples++
	}
	if err := sc.Err(); err != nil {
		if s.ingestTooLarge(w, sc) {
			return
		}
		s.badRequest(w, fmt.Errorf("reading ingest body: %w", err))
		return
	}
	// The commit goes through the primary's replication log, so
	// followers receive exactly the statements this batch applied.
	info, err := primary.Commit(d)
	if err != nil {
		if errors.Is(err, serve.ErrStaleDelta) {
			writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
			return
		}
		statErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	statIngestTriples.Add(int64(triples))
	writeJSON(w, http.StatusOK, api.IngestResult{
		Triples:    triples,
		AddedNodes: info.AddedNodes,
		AddedEdges: info.AddedEdges,
		Retyped:    info.Retyped,
		Nodes:      info.Nodes,
		Edges:      info.Edges,
		Generation: info.Generation,
		CommitTime: api.Duration(info.CommitTime),
		BuildTime:  api.Duration(info.BuildTime),
	})
}

// ingestTooLarge writes a 413 and reports true when the scanner stopped
// because the request body exceeded the ingest cap.
func (s *server) ingestTooLarge(w http.ResponseWriter, sc *bufio.Scanner) bool {
	var tooBig *http.MaxBytesError
	if !errors.As(sc.Err(), &tooBig) {
		return false
	}
	writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
		"error": fmt.Sprintf("ingest body exceeds %d bytes; split the batch", tooBig.Limit),
	})
	return true
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	g := s.srv.Engine().Graph()
	resp := map[string]any{
		"status":     "ok",
		"nodes":      g.NumNodes(),
		"edges":      g.NumEdges(),
		"predicates": g.NumPredicates(),
		"generation": s.srv.Generation(),
	}
	resp["replication"] = s.repl.healthz()
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past this point mean the client is gone; the status
	// line is already out, so there is nothing useful left to report.
	_ = json.NewEncoder(w).Encode(v)
}
