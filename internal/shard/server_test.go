// Protocol-level tests for the shard server: these speak raw shardwire
// over httptest — no coordinator — and pin down the contract the
// distributed pipeline's exactness rests on: strict request validation,
// deterministic exact streams, offset resume, and inactive-projection
// completeness.
//
// External test package: core imports shard, so these tests import core
// (for plan compilation and wire blueprints) from the outside.
package shard_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"semkg/internal/core"
	"semkg/internal/datagen"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/shard"
	"semkg/internal/shardwire"
)

// serverWorld is a tiny deterministic world, its engine, a 2-shard
// partition, and one server process holding BOTH shards (the router must
// dispatch by the request's shard index, not by accident of deployment).
type serverWorld struct {
	ds   *datagen.Dataset
	eng  *core.Engine
	set  *shard.Set
	srv  *shard.Server
	http *httptest.Server
}

func newServerWorld(t *testing.T, seed int64) *serverWorld {
	t.Helper()
	ds := datagen.Generate(datagen.Profile{
		Name: "tiny", Seed: seed,
		Countries: 4, CitiesPerCtr: 2, Companies: 12, Autos: 70,
		People: 24, Engines: 12, Clubs: 6, FillerTypes: 2, FillerPerType: 3,
	})
	rng := rand.New(rand.NewSource(seed * 31))
	names := ds.Graph.Predicates()
	vecs := make([]embed.Vector, len(names))
	for i := range vecs {
		v := make(embed.Vector, 8)
		for j := range v {
			v[j] = 0.1 + 0.9*rng.Float64()
		}
		vecs[i] = v
	}
	sp, err := embed.NewSpace(names, vecs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Graph, sp, ds.Library)
	if err != nil {
		t.Fatal(err)
	}
	set, err := shard.Partition(ds.Graph, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := shard.NewServer(set.Shard(0), set.Shard(1))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return &serverWorld{ds: ds, eng: eng, set: set, srv: srv, http: hs}
}

var serverOpts = core.Options{K: 5, Tau: 0.5, MaxHops: 3}

// wireRequest compiles q once globally and builds the request the
// coordinator would send for (shard, sub).
func (w *serverWorld) wireRequest(t *testing.T, q int, shardIdx, sub int) *shardwire.SearchRequest {
	t.Helper()
	plan, err := w.eng.Compile(w.workload()[q].Graph, serverOpts)
	if err != nil {
		t.Fatal(err)
	}
	bps, err := plan.WireBlueprints()
	if err != nil {
		t.Fatal(err)
	}
	if sub >= len(bps) {
		t.Fatalf("query %d has %d sub-queries, want index %d", q, len(bps), sub)
	}
	// The wire carries each φ end set once per id, in ascending order.
	for i, bp := range bps {
		for seg, set := range bp.EndSets {
			for j := 1; j < len(set); j++ {
				if set[j-1] >= set[j] {
					t.Fatalf("query %d sub %d: end set %d is not ascending and duplicate-free: %v", q, i, seg, set)
				}
			}
		}
	}
	return &shardwire.SearchRequest{
		Shard: shardIdx, Sub: sub, Blueprint: bps[sub],
		Tau: serverOpts.Tau, MaxHops: serverOpts.MaxHops,
	}
}

func (w *serverWorld) workload() []datagen.GenQuery {
	qs := append([]datagen.GenQuery(nil), w.ds.Simple...)
	qs = append(qs, w.ds.Medium...)
	qs = append(qs, w.ds.Complex...)
	return qs
}

// activeOn mirrors the server's projection activity rule: at least one
// anchor and every end set must project into the shard.
func activeOn(sh *shard.Shard, bp shardwire.Blueprint) bool {
	anchored := false
	for _, a := range bp.Anchors {
		if _, ok := sh.LocalNode(kg.NodeID(a)); ok {
			anchored = true
			break
		}
	}
	if !anchored {
		return false
	}
	for _, set := range bp.EndSets {
		any := false
		for _, g := range set {
			if _, ok := sh.LocalNode(kg.NodeID(g)); ok {
				any = true
				break
			}
		}
		if !any {
			return false
		}
	}
	return true
}

// post sends req and returns the HTTP status and raw body.
func (w *serverWorld) post(t *testing.T, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(w.http.URL+shardwire.PathSearch, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func (w *serverWorld) search(t *testing.T, req *shardwire.SearchRequest) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return w.post(t, b)
}

// decodeStream splits an NDJSON body into match lines and the terminal.
func decodeStream(t *testing.T, body []byte) (matches []shardwire.Line, terminal shardwire.Line) {
	t.Helper()
	lr := shardwire.NewLineReader(bytes.NewReader(body))
	for {
		l, err := lr.Next()
		if err == io.EOF {
			t.Fatalf("stream ended without a terminal line (%d matches so far)", len(matches))
		}
		if err != nil {
			t.Fatal(err)
		}
		if l.Terminal() {
			return matches, l
		}
		matches = append(matches, l)
	}
}

// findActive locates a (query, shard, sub) whose exact stream has at
// least minMatches matches, for the determinism and resume tests.
func (w *serverWorld) findActive(t *testing.T, minMatches int) (*shardwire.SearchRequest, []shardwire.Line, shardwire.Line) {
	t.Helper()
	for q := range w.workload() {
		plan, err := w.eng.Compile(w.workload()[q].Graph, serverOpts)
		if err != nil {
			t.Fatal(err)
		}
		bps, err := plan.WireBlueprints()
		if err != nil {
			t.Fatal(err)
		}
		for sub := range bps {
			for si := 0; si < w.set.Len(); si++ {
				if !activeOn(w.set.Shard(si), bps[sub]) {
					continue
				}
				req := &shardwire.SearchRequest{
					Shard: si, Sub: sub, Blueprint: bps[sub],
					Tau: serverOpts.Tau, MaxHops: serverOpts.MaxHops,
				}
				status, body := w.search(t, req)
				if status != http.StatusOK {
					t.Fatalf("active search status %d: %s", status, body)
				}
				matches, terminal := decodeStream(t, body)
				if len(matches) >= minMatches {
					return req, matches, terminal
				}
			}
		}
	}
	t.Fatalf("no (query, shard, sub) with >= %d matches in the test world", minMatches)
	return nil, nil, shardwire.Line{}
}

func TestServerMeta(t *testing.T) {
	w := newServerWorld(t, 3)
	resp, err := http.Get(w.http.URL + shardwire.PathMeta)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m shardwire.Meta
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 2 {
		t.Fatalf("meta lists %d shards, want 2", len(m.Shards))
	}
	owned := 0
	for i, info := range m.Shards {
		if info.Index != i || info.Shards != 2 {
			t.Fatalf("shard %d meta identity %+v", i, info)
		}
		if info.Halo != w.set.Halo() {
			t.Fatalf("shard %d halo %d, want %d", i, info.Halo, w.set.Halo())
		}
		if info.Nodes <= 0 || info.Owned <= 0 || len(info.Samples) == 0 {
			t.Fatalf("shard %d implausibly empty: %+v", i, info)
		}
		if int(info.MaxGlobalNode) >= w.ds.Graph.NumNodes() {
			t.Fatalf("shard %d max global node %d out of base range", i, info.MaxGlobalNode)
		}
		// Every sample must agree with the base graph — this is exactly
		// the probe the coordinator runs to reject stale snapshots.
		for _, s := range info.Samples {
			if got := w.ds.Graph.NodeName(kg.NodeID(s.ID)); got != s.Name {
				t.Fatalf("sample %d: shard says %q, base graph says %q", s.ID, s.Name, got)
			}
		}
		owned += info.Owned
	}
	if owned != w.ds.Graph.NumNodes() {
		t.Fatalf("meta owned total %d, want %d", owned, w.ds.Graph.NumNodes())
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	w := newServerWorld(t, 3)
	valid := func() *shardwire.SearchRequest { return w.wireRequest(t, 0, 0, 0) }

	t.Run("malformed json", func(t *testing.T) {
		status, _ := w.post(t, []byte(`{"shard":`))
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", status)
		}
	})
	t.Run("unknown field", func(t *testing.T) {
		// Version skew must fail loudly, not truncate semantics silently.
		status, body := w.post(t, []byte(`{"shard":0,"tau":0.5,"max_hops":2,"anchors":[],"end_sets":[],"rows":[],"surprise":1}`))
		if status != http.StatusBadRequest || !strings.Contains(string(body), "surprise") {
			t.Fatalf("status %d body %s, want 400 naming the unknown field", status, body)
		}
	})
	t.Run("tau out of range", func(t *testing.T) {
		req := valid()
		req.Tau = 0
		if status, _ := w.search(t, req); status != http.StatusBadRequest {
			t.Fatal("tau=0 accepted")
		}
	})
	t.Run("rows segments mismatch", func(t *testing.T) {
		req := valid()
		req.Rows = req.Rows[:0]
		if len(req.EndSets) == 0 {
			t.Skip("sub-query has no segments")
		}
		if status, _ := w.search(t, req); status != http.StatusBadRequest {
			t.Fatal("rows/segments mismatch accepted")
		}
	})
	t.Run("unknown shard", func(t *testing.T) {
		req := valid()
		req.Shard = 7
		status, body := w.search(t, req)
		if status != http.StatusNotFound {
			t.Fatalf("status %d body %s, want 404", status, body)
		}
	})
	t.Run("max hops beyond halo", func(t *testing.T) {
		req := valid()
		req.MaxHops = w.set.Halo() + 1
		status, body := w.search(t, req)
		if status != http.StatusBadRequest || !strings.Contains(string(body), "halo") {
			t.Fatalf("status %d body %s, want 400 naming the halo", status, body)
		}
	})
	t.Run("stale predicate rows", func(t *testing.T) {
		// A row set missing a shard predicate means the snapshot outlived
		// the coordinator's graph — find an active (shard, sub) so the
		// check is actually reached, then strip one predicate everywhere.
		req, _, _ := w.findActive(t, 1)
		some := ""
		for name := range req.Rows[0] {
			some = name
			break
		}
		for _, row := range req.Rows {
			delete(row, some)
		}
		status, body := w.search(t, req)
		if status != http.StatusBadRequest || !strings.Contains(string(body), "stale") {
			t.Fatalf("status %d body %s, want 400 suggesting a stale snapshot", status, body)
		}
	})

	if st := w.srv.Stats(); st.Errors == 0 {
		t.Fatalf("rejections not counted: %+v", st)
	}
}

// TestServerInactiveProjection: a sub-query that provably cannot match on
// this shard (no anchor projects) completes immediately as a clean empty
// stream — completeness, not an error, or the coordinator's merge
// would never terminate.
func TestServerInactiveProjection(t *testing.T) {
	w := newServerWorld(t, 3)
	req := w.wireRequest(t, 0, 0, 0)
	req.Anchors = nil
	status, body := w.search(t, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	matches, terminal := decodeStream(t, body)
	if len(matches) != 0 {
		t.Fatalf("%d matches from an anchorless projection", len(matches))
	}
	if !terminal.Done || terminal.Stats == nil {
		t.Fatalf("terminal %+v, want done with stats", terminal)
	}
}

// TestServerExactStreamDeterminismAndResume pins the property the whole
// failover design rests on: the exact stream is deterministic for a
// given (shard snapshot, request), sorted by non-increasing pss, and
// Offset=N returns exactly the suffix after N matches.
func TestServerExactStreamDeterminismAndResume(t *testing.T) {
	w := newServerWorld(t, 3)
	req, matches, terminal := w.findActive(t, 3)
	if !terminal.Done || terminal.Stats == nil {
		t.Fatalf("exact terminal %+v", terminal)
	}
	for i := 1; i < len(matches); i++ {
		if matches[i].PSS > matches[i-1].PSS {
			t.Fatalf("stream not sorted: pss %v after %v at %d", matches[i].PSS, matches[i-1].PSS, i)
		}
	}

	// Determinism: the same request streams byte-identical bodies.
	_, first := w.search(t, req)
	_, second := w.search(t, req)
	if !bytes.Equal(first, second) {
		t.Fatal("two runs of the same exact request differ byte-for-byte")
	}

	// Offset resume: the suffix after 2 consumed matches, as a failed-over
	// coordinator would request it.
	resumed := *req
	resumed.Offset = 2
	status, body := w.search(t, &resumed)
	if status != http.StatusOK {
		t.Fatalf("resume status %d: %s", status, body)
	}
	rm, rterm := decodeStream(t, body)
	if len(rm) != len(matches)-2 {
		t.Fatalf("resume returned %d matches, want %d", len(rm), len(matches)-2)
	}
	for i := range rm {
		wantLine, _ := shardwire.EncodeLine(matches[i+2])
		gotLine, _ := shardwire.EncodeLine(rm[i])
		if !bytes.Equal(gotLine, wantLine) {
			t.Fatalf("resume match %d differs:\n got %s\nwant %s", i, gotLine, wantLine)
		}
	}
	if !rterm.Done {
		t.Fatalf("resume terminal %+v", rterm)
	}

	// Offset past the end: an empty, cleanly finished stream.
	past := *req
	past.Offset = len(matches) + 1000
	_, body = w.search(t, &past)
	pm, pterm := decodeStream(t, body)
	if len(pm) != 0 || !pterm.Done {
		t.Fatalf("offset-past-end gave %d matches, terminal %+v", len(pm), pterm)
	}

	if st := w.srv.Stats(); st.Searches == 0 || st.Matches == 0 {
		t.Fatalf("traffic not counted: %+v", st)
	}
}
