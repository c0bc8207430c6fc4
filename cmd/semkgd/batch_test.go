package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"semkg/internal/api"
	"semkg/internal/serve"
)

const batchBody = `{
  "queries": [
    {"id": "german",
     "query": {"nodes":[{"id":"v1","type":"Automobile"},{"id":"v2","name":"Germany","type":"Country"}],
               "edges":[{"from":"v1","to":"v2","predicate":"assembly"}]}},
    {"id": "german-k3",
     "query": {"nodes":[{"id":"v1","type":"Automobile"},{"id":"v2","name":"Germany","type":"Country"}],
               "edges":[{"from":"v1","to":"v2","predicate":"assembly"}]},
     "options": {"k": 3, "tau": 0.75}},
    {"id": "bad",
     "query": {"nodes":[{"id":"v1"}], "edges":[]}}
  ],
  "options": {"k": 10, "tau": 0.75}
}`

func TestBatchEndpoint(t *testing.T) {
	srv := testServer(t, serve.Config{})

	resp := post(t, srv, "/v1/batch", batchBody)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var res api.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(res.Results))
	}

	// Item 0: full K under the shared options.
	r0 := res.Results[0]
	if r0.Index != 0 || r0.ID != "german" || r0.Error != "" || r0.Result == nil {
		t.Fatalf("item 0 attribution: %+v", r0)
	}
	got := make(map[string]bool)
	for _, a := range r0.Result.Answers {
		got[a.Entity] = true
	}
	for _, want := range []string{"BMW_320", "Audi_TT", "BMW_Z4", "BMW_X6"} {
		if !got[want] {
			t.Errorf("item 0 missing %s: %v", want, r0.Result.Answers)
		}
	}

	// Item 1: per-query override caps K at 3.
	r1 := res.Results[1]
	if r1.Error != "" || r1.Result == nil || len(r1.Result.Answers) != 3 {
		t.Fatalf("item 1 (k=3): %+v", r1)
	}

	// Item 2: invalid query fails alone, with attribution.
	r2 := res.Results[2]
	if r2.ID != "bad" || r2.Error == "" || r2.Result != nil {
		t.Fatalf("item 2 should fail alone: %+v", r2)
	}
}

func TestBatchEndpointSharesSubSearches(t *testing.T) {
	layer := serve.New(testEngine(t), serve.Config{})
	srv := httptest.NewServer(newMuxReplicated(layer, defaultMaxIngestBytes, newPrimaryState(layer, "", 0)))
	t.Cleanup(srv.Close)

	resp := post(t, srv, "/v1/batch", batchBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	st := layer.Stats()
	if st.SubHits == 0 {
		t.Fatalf("overlapping batch produced no shared sub-search hits: %+v", st)
	}
}

func TestBatchEndpointMalformed(t *testing.T) {
	srv := testServer(t, serve.Config{})
	for _, body := range []string{
		`{"queries": [], "bogus": 1}`,
		`not json`,
	} {
		resp := post(t, srv, "/v1/batch", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestBatchEndpointStreaming(t *testing.T) {
	srv := testServer(t, serve.Config{})

	resp := post(t, srv, "/v1/batch?stream=1", batchBody)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}

	results := make(map[int]*api.Result)
	errLines := make(map[int]string)
	ids := make(map[int]string)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		ev, err := api.DecodeBatchEvent(sc.Bytes())
		if err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		ids[ev.Index] = ev.ID
		switch ev.Event.Event {
		case api.EventResult:
			results[ev.Index] = ev.Result
		case api.EventError:
			errLines[ev.Index] = ev.ErrorText
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if results[0] == nil || results[1] == nil {
		t.Fatalf("missing terminal results: %v", results)
	}
	if len(results[1].Answers) != 3 {
		t.Fatalf("item 1 answers = %d, want 3", len(results[1].Answers))
	}
	if errLines[2] == "" {
		t.Fatalf("invalid item 2 produced no error line: %v", errLines)
	}
	if ids[0] != "german" || ids[1] != "german-k3" || ids[2] != "bad" {
		t.Fatalf("attribution IDs lost: %v", ids)
	}
}

// TestBatchInterleavedWithIngest exercises batch traffic racing live
// ingestion through the HTTP surface (the handler-level mirror of the
// serve-layer generation tests): every batch answers 200 with per-item
// success, and after the final ingest a batch sees the new entity.
func TestBatchInterleavedWithIngest(t *testing.T) {
	srv := testServer(t, serve.Config{Queue: 64})

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp := post(t, srv, "/v1/batch", batchBody)
				var res api.BatchResult
				err := json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if err != nil {
					errs[c] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[c] = fmt.Errorf("round %d: status %d", i, resp.StatusCode)
					return
				}
				for _, r := range res.Results[:2] {
					if r.Error != "" {
						errs[c] = fmt.Errorf("round %d item %d: %s", i, r.Index, r.Error)
						return
					}
				}
			}
		}(c)
	}
	for a := 0; a < 4; a++ {
		body := fmt.Sprintf("{\"s\":\"Inge_%d\",\"p\":\"type\",\"o\":\"Automobile\"}\n{\"s\":\"Inge_%d\",\"p\":\"assembly\",\"o\":\"Germany\"}\n", a, a)
		resp := post(t, srv, "/v1/ingest", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d", a, resp.StatusCode)
		}
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	// Post-ingest batch sees the ingested autos.
	resp := post(t, srv, "/v1/batch", strings.Replace(batchBody, `"k": 10`, `"k": 40`, 1))
	defer resp.Body.Close()
	var res api.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	found := make(map[string]bool)
	for _, a := range res.Results[0].Result.Answers {
		found[a.Entity] = true
	}
	for a := 0; a < 4; a++ {
		if !found[fmt.Sprintf("Inge_%d", a)] {
			t.Fatalf("Inge_%d missing after interleaved ingest: %v", a, res.Results[0].Result.Answers)
		}
	}
}
