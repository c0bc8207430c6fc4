package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"semkg/internal/api"
	"semkg/internal/core"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/serve"
)

// testServer wraps a fresh serving layer around the test engine. The
// engine builder backs /v1/ingest (rebuilds over committed graphs).
func testServer(t *testing.T, cfg serve.Config) *httptest.Server {
	t.Helper()
	if cfg.Build == nil {
		cfg.Build = testEngineBuilder(t)
	}
	layer := serve.New(testEngine(t), cfg)
	srv := httptest.NewServer(newMuxReplicated(layer, defaultMaxIngestBytes, newPrimaryState(layer, "", 0)))
	t.Cleanup(srv.Close)
	return srv
}

// testEngineBuilder rebuilds an engine over a committed graph with the
// test predicate vectors, padding a neutral direction for ingested
// predicates the hand-crafted space lacks.
func testEngineBuilder(t *testing.T) func(*kg.Graph) (*core.Engine, error) {
	t.Helper()
	vecs := testVectors()
	return func(g *kg.Graph) (*core.Engine, error) {
		names := g.Predicates()
		ordered := make([]embed.Vector, len(names))
		for i, n := range names {
			if v, ok := vecs[n]; ok {
				ordered[i] = v
			} else {
				ordered[i] = embed.Vector{0.30, 0.90, 0.30}
			}
		}
		sp, err := embed.NewSpace(names, ordered)
		if err != nil {
			return nil, err
		}
		return core.NewEngine(g, sp, nil)
	}
}

func testVectors() map[string]embed.Vector {
	return map[string]embed.Vector{
		"assembly":        {1.00, 0.05, 0.02},
		"manufacturer":    {0.95, 0.20, 0.05},
		"country":         {0.90, 0.10, 0.30},
		"locationCountry": {0.90, 0.12, 0.28},
	}
}

// testEngine builds a small motivating-example engine with hand-crafted
// predicate vectors (no training): cars related to Germany through three
// schemas, plus French distractors.
func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	b := kg.NewBuilder(32, 64)
	ger := b.AddNode("Germany", "Country")
	france := b.AddNode("France", "Country")
	munich := b.AddNode("Munich", "City")
	co := b.AddNode("BMW_Co", "Company")
	b.AddEdge(munich, ger, "country")
	b.AddEdge(co, ger, "locationCountry")
	for _, name := range []string{"BMW_320", "Audi_TT"} {
		b.AddEdge(b.AddNode(name, "Automobile"), ger, "assembly")
	}
	b.AddEdge(b.AddNode("BMW_Z4", "Automobile"), munich, "assembly")
	b.AddEdge(b.AddNode("BMW_X6", "Automobile"), co, "manufacturer")
	b.AddEdge(b.AddNode("Clio", "Automobile"), france, "assembly")
	g := b.Build()

	eng, err := testEngineBuilder(t)(g)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

const q117Body = `{"query":{
  "nodes":[{"id":"v1","type":"Automobile"},{"id":"v2","name":"Germany","type":"Country"}],
  "edges":[{"from":"v1","to":"v2","predicate":"assembly"}]},
  "options":{"k":10,"tau":0.75,"max_hops":4%s}}`

func post(t *testing.T, srv *httptest.Server, path, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestSearchEndpoint(t *testing.T) {
	srv := testServer(t, serve.Config{})

	resp := post(t, srv, "/v1/search", strings.Replace(q117Body, "%s", "", 1))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var res api.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, a := range res.Answers {
		got[a.Entity] = true
	}
	for _, want := range []string{"BMW_320", "Audi_TT", "BMW_Z4", "BMW_X6"} {
		if !got[want] {
			t.Errorf("missing answer %s (got %v)", want, res.Answers)
		}
	}
	if got["Clio"] {
		t.Errorf("French car returned: %v", res.Answers)
	}
	if res.Pivot == "" {
		t.Error("result missing pivot")
	}
}

func TestBadRequests(t *testing.T) {
	srv := testServer(t, serve.Config{})

	cases := []struct {
		name, path, body string
	}{
		{"malformed JSON", "/v1/search", `{`},
		{"unknown field", "/v1/search", `{"query":{"nodes":[],"edges":[]},"bogus":1}`},
		{"invalid query: no edges", "/v1/search",
			`{"query":{"nodes":[{"id":"v1","type":"A"}],"edges":[]}}`},
		{"unknown option field", "/v1/search", strings.Replace(q117Body, "%s", `,"tau_bad":0`, 1)},
		{"tau > 1", "/v1/stream",
			`{"query":{"nodes":[{"id":"v1","type":"Automobile"},{"id":"v2","name":"Germany"}],
			  "edges":[{"from":"v1","to":"v2","predicate":"assembly"}]},"options":{"tau":1.5}}`},
		{"negative k", "/v1/stream",
			`{"query":{"nodes":[{"id":"v1","type":"Automobile"},{"id":"v2","name":"Germany"}],
			  "edges":[{"from":"v1","to":"v2","predicate":"assembly"}]},"options":{"k":-3}}`},
		// Decomposition-level caller errors must be 400s, not 500s.
		{"pivot not in query", "/v1/search", strings.Replace(q117Body, "%s", `,"pivot":"nosuch"`, 1)},
		{"pivot is a specific node", "/v1/stream", strings.Replace(q117Body, "%s", `,"pivot":"v2"`, 1)},
	}
	for _, tc := range cases {
		resp := post(t, srv, tc.path, tc.body)
		var msg map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%v)", tc.name, resp.StatusCode, msg)
		}
		if msg["error"] == "" {
			t.Errorf("%s: missing JSON error body", tc.name)
		}
	}
}

func TestHealthz(t *testing.T) {
	srv := testServer(t, serve.Config{})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, h)
	}
	if h["nodes"].(float64) <= 0 || h["predicates"].(float64) <= 0 {
		t.Errorf("healthz missing graph shape: %v", h)
	}
}

func TestExpvarExported(t *testing.T) {
	srv := testServer(t, serve.Config{})
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"semkgd_searches_total", "semkgd_streams_total", "semkgd_stream_events_total"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("expvar %q not exported", key)
		}
	}
}

// TestStreamEndpointTimeBounded is the acceptance test: a time-bounded
// query over /v1/stream emits at least one provisional top-k event before
// the terminal result, and the terminal result matches the batch endpoint.
func TestStreamEndpointTimeBounded(t *testing.T) {
	srv := testServer(t, serve.Config{})

	body := strings.Replace(q117Body, "%s", `,"time_bound":"2s"`, 1)
	resp := post(t, srv, "/v1/stream", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	var events []api.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, err := api.DecodeEvent(line)
		if err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last := events[len(events)-1]
	if last.Event != api.EventResult || last.Result == nil {
		t.Fatalf("last event = %+v, want terminal result", last)
	}
	topkBeforeResult := 0
	for _, ev := range events[:len(events)-1] {
		if ev.Event == api.EventTopK {
			topkBeforeResult++
		}
	}
	if topkBeforeResult < 1 {
		t.Fatalf("no provisional topk event before the terminal result (events: %d)", len(events))
	}

	// Terminal result matches the batch endpoint byte-for-byte on answers.
	batchResp := post(t, srv, "/v1/search", body)
	defer batchResp.Body.Close()
	var batch api.Result
	if err := json.NewDecoder(batchResp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Answers) != len(last.Result.Answers) {
		t.Fatalf("stream answers %d != batch answers %d", len(last.Result.Answers), len(batch.Answers))
	}
	for i := range batch.Answers {
		if batch.Answers[i].Entity != last.Result.Answers[i].Entity ||
			batch.Answers[i].Score != last.Result.Answers[i].Score {
			t.Errorf("answer %d differs: stream %+v vs batch %+v",
				i, last.Result.Answers[i], batch.Answers[i])
		}
	}
	// The last topk snapshot equals the final ranking (ordering guarantee).
	var lastTopK *api.Event
	for i := range events {
		if events[i].Event == api.EventTopK {
			lastTopK = &events[i]
		}
	}
	if lastTopK == nil || len(lastTopK.Answers) != len(last.Result.Answers) {
		t.Fatalf("last topk %+v does not carry the final ranking", lastTopK)
	}
}

// TestCachedSearchBodyIdentical: the second identical request is served
// from the result cache with a byte-identical response body.
func TestCachedSearchBodyIdentical(t *testing.T) {
	srv := testServer(t, serve.Config{})
	body := strings.Replace(q117Body, "%s", "", 1)

	read := func() []byte {
		resp := post(t, srv, "/v1/search", body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cold := read()
	warm := read()
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cached body differs from cold body:\n%s\nvs\n%s", warm, cold)
	}

	// The serve expvar reflects the hit.
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Serve serve.Stats `json:"semkgd_serve"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Serve.ResultHits != 1 || vars.Serve.PipelineRuns != 1 {
		t.Fatalf("serve stats = %+v, want 1 hit / 1 pipeline run", vars.Serve)
	}
}

// TestOverloaded429: with one worker, no queue, and the worker pinned by
// an in-flight request, a second distinct request is shed with 429 and a
// Retry-After header.
func TestOverloaded429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	cfg := serve.Config{Workers: 1, Queue: -1, BeforeRun: func() {
		started <- struct{}{}
		<-release
	}}
	srv := testServer(t, cfg)

	firstDone := make(chan int, 1)
	go func() {
		resp := post(t, srv, "/v1/search", strings.Replace(q117Body, "%s", "", 1))
		defer resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	<-started // the worker is now pinned

	distinct := strings.Replace(strings.Replace(q117Body, "%s", "", 1), "Germany", "France", 1)
	resp := post(t, srv, "/v1/search", distinct)
	var msg map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&msg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%v)", resp.StatusCode, msg)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After header")
	}
	if msg["error"] == "" {
		t.Error("missing JSON error body")
	}

	// Streaming requests are shed the same way, before the 200 header.
	streamResp := post(t, srv, "/v1/stream", distinct)
	streamResp.Body.Close()
	if streamResp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("stream status = %d, want 429", streamResp.StatusCode)
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("pinned request finished with %d", code)
	}
}
