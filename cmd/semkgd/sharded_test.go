package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"semkg/internal/api"
	"semkg/internal/core"
	"semkg/internal/kg"
	"semkg/internal/serve"
	"semkg/internal/shard"
)

// shardedTestServer serves the motivating example through a 2-shard
// scatter-gather engine, as `semkgd -shards 2` would.
func shardedTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	base := testEngine(t)
	se, err := core.NewShardedEngine(base, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	layer := serve.New(se, serve.Config{})
	srv := httptest.NewServer(newMuxReplicated(layer, defaultMaxIngestBytes, newPrimaryState(layer, "", 0)))
	t.Cleanup(srv.Close)
	return srv
}

// TestShardedSearchEndpoint: the HTTP surface is oblivious to sharding —
// same request, same answers as the single-engine server.
func TestShardedSearchEndpoint(t *testing.T) {
	single := searchEntities(t, testServer(t, serve.Config{}))
	sharded := searchEntities(t, shardedTestServer(t))
	if len(sharded) != len(single) {
		t.Fatalf("sharded answers %v, single %v", sharded, single)
	}
	for e := range single {
		if !sharded[e] {
			t.Fatalf("entity %q missing from sharded answers %v", e, sharded)
		}
	}
}

// TestShardedStreamEndpoint: the NDJSON stream carries per-shard progress
// attribution and ends with a result line.
func TestShardedStreamEndpoint(t *testing.T) {
	srv := shardedTestServer(t)
	resp := post(t, srv, "/v1/stream", strings.Replace(q117Body, "%s", "", 1))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sawShard, sawResult := false, false
	for sc.Scan() {
		ev, err := api.DecodeEvent(sc.Bytes())
		if err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case api.EventProgress:
			if ev.Shard > 0 {
				sawShard = true
			}
		case api.EventResult:
			sawResult = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawShard {
		t.Fatal("no progress line carried a shard attribution")
	}
	if !sawResult {
		t.Fatal("stream ended without a result line")
	}
}

// TestShardedIngestReturnsBeforeRepartition is the regression test for
// the silent synchronous re-partition: an ingest against a sharded
// server must commit and answer queries BEFORE the background partition
// completes — commit latency scales with the delta, not with the graph.
// The Gate hook holds the repartition shut while we verify.
func TestShardedIngestReturnsBeforeRepartition(t *testing.T) {
	base := testEngine(t)
	initial, err := core.NewShardedEngine(base, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	ready := make(chan struct{})
	build := func(g2 *kg.Graph) (*core.Engine, error) {
		eng, err := testEngineBuilder(t)(g2)
		if err != nil {
			return nil, err
		}
		return core.NewResharding(eng, initial, core.ReshardConfig{
			Shard:   shard.Options{Shards: 2},
			Gate:    func() { <-gate },
			OnReady: func(core.ShardedStats) { close(ready) },
			OnError: func(err error) { t.Errorf("background repartition failed: %v", err) },
		}), nil
	}
	layer := serve.New(initial, serve.Config{Build: build})
	srv := httptest.NewServer(newMuxReplicated(layer, defaultMaxIngestBytes, newPrimaryState(layer, "", 0)))
	t.Cleanup(srv.Close)

	// The ingest must return while the partition gate is still held; if a
	// rebuild repartitioned synchronously this would hang until the
	// watchdog fires.
	ingested := make(chan *http.Response, 1)
	go func() {
		ingested <- post(t, srv, "/v1/ingest",
			`{"s":"BMW_i8","p":"type","o":"Automobile"}`+"\n"+`{"s":"BMW_i8","p":"assembly","o":"Germany"}`)
	}()
	var resp *http.Response
	select {
	case resp = <-ingested:
	case <-time.After(10 * time.Second):
		t.Fatal("ingest blocked on the background repartition")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}

	// The committed entity answers immediately through the interim engine,
	// and healthz reports the repartition in flight.
	if !searchEntities(t, srv)["BMW_i8"] {
		t.Fatal("ingested entity not findable while repartitioning")
	}
	health := func() map[string]any {
		hresp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer hresp.Body.Close()
		var h map[string]any
		if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := health(); h["resharding"] != true {
		t.Fatalf("healthz while gated = %v, want resharding:true", h)
	}

	close(gate)
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("background repartition never completed")
	}
	if h := health(); h["shards"] != float64(2) {
		t.Fatalf("healthz after upgrade = %v, want 2 shards", h)
	}
	if !searchEntities(t, srv)["BMW_i8"] {
		t.Fatal("ingested entity lost across the shard upgrade")
	}
}

// TestShardedHealthz reports the shard count.
func TestShardedHealthz(t *testing.T) {
	srv := shardedTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["shards"] != float64(2) {
		t.Fatalf("healthz shards = %v, want 2", body["shards"])
	}
}

// TestShardedStatsSurviveIngest is the regression test for the monitoring
// surface going blind after the first ingest: every commit on a sharded
// semkgd installs a resharding engine, and once its background partition
// is ready the semkgd_shard expvar and /healthz must describe it — with
// the search counters inherited, so they stay monotonic across
// generations, however many ingests deep.
func TestShardedStatsSurviveIngest(t *testing.T) {
	base := testEngine(t)
	initial, err := core.NewShardedEngine(base, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan struct{}, 2)
	var sv *serve.Engine
	build := func(g2 *kg.Graph) (*core.Engine, error) {
		eng, err := testEngineBuilder(t)(g2)
		if err != nil {
			return nil, err
		}
		// As in main.go: the serving engine donates its counters.
		return core.NewResharding(eng, sv.Engine(), core.ReshardConfig{
			Shard:   shard.Options{Shards: 2},
			OnReady: func(core.ShardedStats) { ready <- struct{}{} },
			OnError: func(err error) { t.Errorf("background repartition failed: %v", err) },
		}), nil
	}
	sv = serve.New(initial, serve.Config{Build: build})
	srv := httptest.NewServer(newMuxReplicated(sv, defaultMaxIngestBytes, newPrimaryState(sv, "", 0)))
	t.Cleanup(srv.Close)

	getJSON := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	// shardVar reads one semkgd_shard counter, failing if the expvar has
	// gone null.
	shardVar := func(when, key string) float64 {
		t.Helper()
		st, ok := getJSON("/debug/vars")["semkgd_shard"].(map[string]any)
		if !ok {
			t.Fatalf("%s: semkgd_shard expvar is null", when)
		}
		v, ok := st[key].(float64)
		if !ok {
			t.Fatalf("%s: semkgd_shard.%s missing from %v", when, key, st)
		}
		return v
	}

	searchEntities(t, srv)
	searches := shardVar("at start", "sharded_searches")
	if searches < 1 || shardVar("at start", "shards") != 2 {
		t.Fatalf("at start: %v sharded searches over %v shards, want >= 1 over 2",
			searches, shardVar("at start", "shards"))
	}

	for i, entity := range []string{"BMW_i8", "BMW_iX"} {
		when := "after ingest " + entity
		resp := post(t, srv, "/v1/ingest",
			`{"s":"`+entity+`","p":"type","o":"Automobile"}`+"\n"+`{"s":"`+entity+`","p":"assembly","o":"Germany"}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", when, resp.StatusCode)
		}
		select {
		case <-ready:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: background repartition never completed", when)
		}
		if got := shardVar(when, "shards"); got != 2 {
			t.Fatalf("%s: semkgd_shard.shards = %v, want 2", when, got)
		}
		if got := shardVar(when, "sharded_searches"); got < searches {
			t.Fatalf("%s: sharded_searches fell from %v to %v", when, searches, got)
		}
		if h := getJSON("/healthz"); h["shards"] != float64(2) || h["resharding"] != nil {
			t.Fatalf("%s: healthz = %v, want 2 shards and no resharding flag", when, h)
		}
		// The new generation's first search misses every cache and runs
		// the sharded pipeline: the inherited counter keeps counting.
		if !searchEntities(t, srv)[entity] {
			t.Fatalf("%s: ingested entity not findable", when)
		}
		next := shardVar(when, "sharded_searches")
		if next <= searches {
			t.Fatalf("%s (generation %d): sharded_searches stuck at %v after a search", when, i+1, next)
		}
		searches = next
	}
}
