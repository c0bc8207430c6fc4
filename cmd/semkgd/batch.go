// POST /v1/batch: a group of query documents answered in one call. The
// buffered form returns api.BatchResult with per-query attribution; the
// ?stream=1 form fans every query's event stream into one NDJSON
// response, each line tagged with the query's index (and ID, when
// given). Either way the queries run concurrently through the serving
// layer, so overlapping sub-query searches run once — see
// internal/serve's batch and sub-sharing layers.

package main

import (
	"expvar"
	"net/http"
	"sync"

	"semkg/internal/api"
	"semkg/internal/serve"
)

var (
	statBatches      = expvar.NewInt("semkgd_batches_total")
	statBatchQueries = expvar.NewInt("semkgd_batch_queries_total")
)

// handleBatch answers POST /v1/batch. A malformed body is a 400; a
// well-formed batch always answers 200 with per-query outcomes — one
// query's failure (bad request, overload, cancellation) is attributed to
// that query alone and never sinks its neighbours.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, err := api.DecodeBatchRequest(r.Body)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	statBatches.Add(1)
	statBatchQueries.Add(int64(len(req.Queries)))
	items := make([]serve.BatchItem, len(req.Queries))
	for i := range req.Queries {
		items[i].Query, items[i].Opts = req.Item(i)
	}
	if v := r.URL.Query().Get("stream"); v != "" && v != "0" && v != "false" {
		s.streamBatch(w, r, req, items)
		return
	}

	out := s.srv.SearchBatch(r.Context(), items)
	res := api.BatchResult{Results: make([]api.BatchItemResult, len(out))}
	for i, o := range out {
		item := api.BatchItemResult{Index: i, ID: req.Queries[i].ID}
		if o.Err != nil {
			item.Error = o.Err.Error()
		} else {
			r := api.ResultFrom(o.Result)
			item.Result = &r
		}
		res.Results[i] = item
	}
	writeJSON(w, http.StatusOK, res)
}

// streamBatch is the NDJSON variant of handleBatch: every query's events
// interleave on one connection, tagged per line. Per-query failures
// appear as "error" lines; the response ends when every query's stream
// has terminated, or at the first failed write: the handler returns, and
// that cancels the request context the producers select on.
func (s *server) streamBatch(w http.ResponseWriter, r *http.Request, req api.BatchRequest, items []serve.BatchItem) {
	statStreams.Add(1)
	ctx := r.Context()
	// The buffer lets queries run ahead of the connection write.
	lines := make(chan []byte, 64)
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := req.Queries[i].ID
			emit := func(line []byte, err error) {
				if err != nil {
					statErrors.Add(1)
					return
				}
				select {
				case lines <- line:
				case <-ctx.Done():
				}
			}
			st, err := s.srv.Stream(ctx, it.Query, it.Opts)
			if err != nil {
				emit(api.EncodeBatchError(i, id, err))
				return
			}
			for ev := range st.Events() {
				emit(api.EncodeBatchEvent(i, id, ev))
			}
			if _, err := st.Result(); err != nil {
				emit(api.EncodeBatchError(i, id, err))
			}
		}()
	}
	go func() {
		wg.Wait()
		close(lines)
	}()
	writeNDJSON(w, lines, func(line []byte) ([]byte, error) { return line, nil })
}
