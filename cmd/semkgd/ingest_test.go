package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"semkg/internal/api"
	"semkg/internal/serve"
)

// searchEntities runs the q117 search and returns the answered entities.
func searchEntities(t *testing.T, srv *httptest.Server) map[string]bool {
	t.Helper()
	resp := post(t, srv, "/v1/search", strings.Replace(q117Body, "%s", "", 1))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	var res api.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, a := range res.Answers {
		got[a.Entity] = true
	}
	return got
}

// TestIngestEndpoint is the live-ingestion acceptance path: triples
// POSTed to /v1/ingest are findable by the very next query, with no
// restart — the batch commits as one delta and the serving generation
// advances exactly once.
func TestIngestEndpoint(t *testing.T) {
	srv := testServer(t, serve.Config{})

	if searchEntities(t, srv)["BMW_i8"] {
		t.Fatal("BMW_i8 findable before ingestion")
	}

	body := `{"s":"BMW_i8","p":"type","o":"Automobile"}
{"s":"BMW_i8","p":"assembly","o":"Germany"}

{"s":"BMW_i8","p":"sponsor","o":"FC_Bayern"}
`
	resp := post(t, srv, "/v1/ingest", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&msg)
		t.Fatalf("ingest status = %d (%v)", resp.StatusCode, msg)
	}
	var ing api.IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	if ing.Triples != 3 || ing.AddedNodes != 2 || ing.AddedEdges != 2 {
		t.Fatalf("ingest result = %+v, want 3 triples / 2 nodes / 2 edges", ing)
	}
	if ing.Generation != 1 {
		t.Fatalf("generation = %d, want 1", ing.Generation)
	}

	// The new entity answers the very next query. The "sponsor" predicate
	// was unknown to the space; the padded vector keeps the engine build
	// working.
	if !searchEntities(t, srv)["BMW_i8"] {
		t.Fatal("BMW_i8 not findable after ingestion")
	}

	// healthz reflects the committed graph and generation.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["generation"].(float64) != 1 {
		t.Fatalf("healthz generation = %v, want 1", h["generation"])
	}
}

// TestIngestRejectsBadBatches: any malformed line rejects the whole batch
// before anything is published.
func TestIngestRejectsBadBatches(t *testing.T) {
	srv := testServer(t, serve.Config{})
	cases := []struct{ name, body string }{
		{"malformed JSON", `{"s":"A","p":`},
		{"unknown field", `{"s":"A","p":"x","o":"B","bogus":1}`},
		{"empty component", `{"s":"A","p":"","o":"B"}`},
		{"tab in name", "{\"s\":\"A\\tB\",\"p\":\"x\",\"o\":\"B\"}"},
		{"comment-marker name", `{"s":"#A","p":"x","o":"B"}`},
	}
	for _, tc := range cases {
		resp := post(t, srv, "/v1/ingest", `{"s":"Good","p":"x","o":"Node"}`+"\n"+tc.body)
		var msg map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%v)", tc.name, resp.StatusCode, msg)
		}
	}
	// Nothing from the rejected batches leaked into the graph.
	if searchEntities(t, srv)["Good"] {
		t.Fatal("rejected batch partially applied")
	}
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["generation"].(float64) != 0 {
		t.Fatalf("generation advanced to %v on rejected batches", h["generation"])
	}
}

// TestIngestBodyCap: a batch larger than the configured cap is rejected
// with 413 before it can exhaust memory, and nothing publishes.
func TestIngestBodyCap(t *testing.T) {
	layer := serve.New(testEngine(t), serve.Config{Build: testEngineBuilder(t)})
	srv := httptest.NewServer(newMuxReplicated(layer, 256, newPrimaryState(layer, "", 0)))
	t.Cleanup(srv.Close)
	var big strings.Builder
	for i := 0; big.Len() < 1024; i++ {
		fmt.Fprintf(&big, `{"s":"Node_%d","p":"x","o":"Node_%d"}`+"\n", i, i+1)
	}
	resp := post(t, srv, "/v1/ingest", big.String())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["generation"].(float64) != 0 {
		t.Fatalf("generation advanced to %v on an oversized batch", h["generation"])
	}
}

// TestIngestEmptyBatch: an empty body is a valid no-op that does not bump
// the generation.
func TestIngestEmptyBatch(t *testing.T) {
	srv := testServer(t, serve.Config{})
	resp := post(t, srv, "/v1/ingest", "\n\n")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var ing api.IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	if ing.Triples != 0 || ing.Generation != 0 {
		t.Fatalf("empty batch: %+v", ing)
	}
}
