package core

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"semkg/internal/datagen"
	"semkg/internal/embed"
	"semkg/internal/faultinject"
	"semkg/internal/shard"
	"semkg/internal/tbq"
)

// distWorld is one distributed deployment for tests: in-process httptest
// shard servers (replicas of one shard share the loaded *Shard, exactly
// like replicas loading the same shard file) behind a coordinator.
type distWorld struct {
	set     *shard.Set
	hosts   [][]string
	servers [][]*httptest.Server
	de      *Engine
}

// distOver partitions e's graph into n shards, serves each from
// `replicas` httptest servers, and wires a coordinator over them.
func distOver(t *testing.T, e *Engine, n, replicas int) *distWorld {
	t.Helper()
	set, err := shard.Partition(e.Graph(), shard.Options{Shards: n})
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([][]string, n)
	servers := make([][]*httptest.Server, n)
	for i := 0; i < n; i++ {
		for r := 0; r < replicas; r++ {
			srv, err := shard.NewServer(set.Shard(i))
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			t.Cleanup(hs.Close)
			hosts[i] = append(hosts[i], hs.URL)
			servers[i] = append(servers[i], hs)
		}
	}
	de, err := NewDistEngine(e, hosts)
	if err != nil {
		t.Fatal(err)
	}
	return &distWorld{set: set, hosts: hosts, servers: servers, de: de}
}

// withPolicy replaces de's replica policy before its first search:
// retries extra attempts, a base backoff, and a fixed hedge delay
// (0 keeps the adaptive one, negative disables hedging).
func withPolicy(de *Engine, retries int, backoff, hedgeAfter time.Duration) {
	b := de.sources.Load().backend.(*distBackend)
	b.maxRetries, b.backoff, b.hedgeAfter = retries, backoff, hedgeAfter
}

// TestDistSearchEquivalenceSGQ is the cross-process acceptance property
// at the package level: for generated worlds, every query shape, and
// 1/2/4 shards, the HTTP-scattered exact search is field-identical to
// the single engine and the in-process sharded engine.
func TestDistSearchEquivalenceSGQ(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{3, 42} {
		ds, e := tinyWorld(t, seed)
		type deployment struct {
			dist    *Engine
			sharded *Engine
		}
		deployments := map[int]deployment{}
		for _, n := range []int{1, 2, 4} {
			deployments[n] = deployment{distOver(t, e, n, 1).de, shardedOver(t, e, n)}
		}
		for _, q := range shardedWorkload(ds) {
			for _, k := range []int{1, 5} {
				opts := Options{K: k, Tau: 0.5, MaxHops: 3}
				want, err := e.Search(ctx, q.Graph, opts)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, q.Name, err)
				}
				oracleCheck(t, q.Name+"/single", e, ds.Library, q.Graph, opts, want)
				for n, dep := range deployments {
					got, err := dep.dist.Search(ctx, q.Graph, opts)
					if err != nil {
						t.Fatalf("seed %d %s shards=%d: %v", seed, q.Name, n, err)
					}
					assertTopKEquivalent(t, q.Name, got, want)
					inproc, err := dep.sharded.Search(ctx, q.Graph, opts)
					if err != nil {
						t.Fatalf("seed %d %s shards=%d (in-process): %v", seed, q.Name, n, err)
					}
					assertTopKEquivalent(t, q.Name, got, inproc)
				}
			}
		}
	}
}

// TestDistStreamMatchesSearch: the distributed pipeline streams the same
// terminal result its batch form returns, ends in a ResultEvent, and
// attributes progress to shards.
func TestDistStreamMatchesSearch(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 17)
	de := distOver(t, e, 3, 1).de
	for _, q := range shardedWorkload(ds)[:4] {
		opts := Options{K: 5, Tau: 0.5, MaxHops: 3}
		want, err := de.Search(ctx, q.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := de.Stream(ctx, q.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		events, res := drainStream(t, st)
		if err := st.Err(); err != nil {
			t.Fatalf("%s: stream error: %v", q.Name, err)
		}
		// Remote effort counters are not deterministic: a source the
		// assembly never fully drained reports only the work that crossed
		// the wire before cancellation, which varies with scheduling. The
		// answers are deterministic; compare those.
		res2, want2 := *res, *want
		res2.SearchStats, want2.SearchStats = nil, nil
		res2.ShardEffort, want2.ShardEffort = nil, nil
		assertResultsEqual(t, q.Name+"/dist-stream", &res2, &want2)
		sawShard := false
		for _, ev := range events {
			if pe, ok := ev.(ProgressEvent); ok {
				if pe.Shard < 1 || pe.Shard > 3 {
					t.Fatalf("%s: progress event shard %d outside [1,3]", q.Name, pe.Shard)
				}
				sawShard = true
			}
		}
		if len(want.Answers) > 0 && !sawShard {
			t.Fatalf("%s: no per-shard progress events", q.Name)
		}
		if _, ok := events[len(events)-1].(ResultEvent); !ok {
			t.Fatalf("%s: last event %T, want ResultEvent", q.Name, events[len(events)-1])
		}
	}
}

// TestDistTBQExhaustedEquivalence: with an ample real-clock budget the
// deadline never cuts, so the distributed time-bounded search is the exact
// distributed search — the single engine's answers and scores (a tie at
// the k-th rank may fill either way), unflagged.
func TestDistTBQExhaustedEquivalence(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 8)
	de := distOver(t, e, 4, 1).de
	for _, q := range shardedWorkload(ds)[:5] {
		opts := Options{K: 5, Tau: 0.5, MaxHops: 3, TimeBound: time.Hour}
		want, err := e.Search(ctx, q.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := de.Search(ctx, q.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want.Approximate || got.Approximate {
			t.Fatalf("%s: ample budget was cut (single %v, dist %v)",
				q.Name, want.Approximate, got.Approximate)
		}
		assertTopKEquivalent(t, q.Name, got, want)
	}
}

// TestDistLocalFallbacks: requests the remote partition cannot serve —
// MaxHops beyond the shard halo — run on the coordinator's local base
// engine, with identical results and a counted fallback. A test clock is
// served remotely: the deadline it drives stays on the coordinator.
func TestDistLocalFallbacks(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 3)
	de := distOver(t, e, 2, 1).de
	q := shardedWorkload(ds)[0]

	deep := Options{K: 5, Tau: 0.5, MaxHops: de.Deployment().Dist.Halo + 1}
	want, err := e.Search(ctx, q.Graph, deep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := de.Search(ctx, q.Graph, deep)
	if err != nil {
		t.Fatal(err)
	}
	assertTopKEquivalent(t, q.Name+"/deep", got, want)
	if de.Deployment().Dist.Fallbacks == 0 {
		t.Fatal("MaxHops beyond the halo did not count a local fallback")
	}

	clocked := Options{K: 5, Tau: 0.5, MaxHops: 3, TimeBound: time.Hour, Clock: &tbq.StepClock{Step: time.Microsecond}}
	before := de.Deployment().Dist
	if got, err = de.Search(ctx, q.Graph, clocked); err != nil {
		t.Fatal(err)
	}
	if after := de.Deployment().Dist; after.Fallbacks != before.Fallbacks || after.Searches != before.Searches+1 {
		t.Fatalf("test clock: %+v -> %+v, want one distributed search", before, after)
	}
	if want, err = e.Search(ctx, q.Graph, clocked); err != nil {
		t.Fatal(err)
	}
	assertTopKEquivalent(t, q.Name+"/clocked", got, want)
}

// TestDistPlanCompat: distributed plans recognize their coordinator and
// only it, reuse across searches, and foreign plans are rejected.
func TestDistPlanCompat(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 3)
	de := distOver(t, e, 2, 1).de
	q := shardedWorkload(ds)[0]
	opts := Options{K: 5, Tau: 0.5, MaxHops: 3}

	p, err := de.Compile(q.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertForeignPlan(t, e, p)
	want, err := de.Search(ctx, q.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := de.SearchPlan(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertTopKEquivalent(t, q.Name+"/compiled", got, want)

	base, err := e.Compile(q.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := de.SearchPlan(ctx, base, opts); err == nil {
		t.Fatal("coordinator accepted a base-engine plan")
	}
}

// TestDistMetaValidation: a coordinator refuses to start over replicas
// that partition differently or serve a different world — wrong search
// results are prevented at construction, not discovered in production.
func TestDistMetaValidation(t *testing.T) {
	_, e := tinyWorld(t, 3)
	set, err := shard.Partition(e.Graph(), shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	serveShard := func(sh *shard.Shard) *httptest.Server {
		srv, err := shard.NewServer(sh)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		return hs
	}
	s0 := serveShard(set.Shard(0))
	s1 := serveShard(set.Shard(1))

	// Happy path sanity.
	if _, err := NewDistEngine(e, [][]string{{s0.URL}, {s1.URL}}); err != nil {
		t.Fatalf("clean deployment rejected: %v", err)
	}
	// Replica serving the wrong shard index.
	if _, err := NewDistEngine(e, [][]string{{s1.URL}, {s0.URL}}); err == nil {
		t.Fatal("swapped shard replicas accepted")
	}
	// Partition arity mismatch: 2-way shards behind a 3-shard coordinator.
	if _, err := NewDistEngine(e, [][]string{{s0.URL}, {s1.URL}, {s1.URL}}); err == nil {
		t.Fatal("2-way partition accepted as a 3-shard deployment")
	}
	// Replica from a different (bigger) world: its shard maps base ids
	// past this coordinator's graph.
	big := datagen.Generate(datagen.Profile{
		Name: "foreign", Seed: 5,
		Countries: 6, CitiesPerCtr: 3, Companies: 30, Autos: 200,
		People: 80, Engines: 30, Clubs: 10, FillerTypes: 2, FillerPerType: 5,
	})
	oset, err := shard.Partition(big.Graph, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDistEngine(e, [][]string{{serveShard(oset.Shard(0)).URL}, {s1.URL}}); err == nil {
		t.Fatal("foreign world's shard accepted (stale-snapshot check failed)")
	}
	// Dead replica.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	if _, err := NewDistEngine(e, [][]string{{s0.URL}, {deadURL}}); err == nil {
		t.Fatal("unreachable replica accepted")
	}
}

// TestDistShardUnavailableTyped: when every replica of a shard is dead
// past the retry budget, Search fails with *ShardUnavailableError — a
// typed partial-result refusal, not a silently wrong top-k and not a
// hang — and the streaming form surfaces the same error as an
// ErrorEvent terminal.
func TestDistShardUnavailableTyped(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 3)
	w := distOver(t, e, 2, 1)
	withPolicy(w.de, 1, time.Millisecond, 0)
	q := shardedWorkload(ds)[0]
	opts := Options{K: 5, Tau: 0.5, MaxHops: 3}

	// Kill shard 1's only replica after construction-time validation.
	w.servers[1][0].CloseClientConnections()
	w.servers[1][0].Close()

	done := make(chan struct{})
	var searchErr error
	go func() {
		defer close(done)
		_, searchErr = w.de.Search(ctx, q.Graph, opts)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("dead-shard search hung")
	}
	var unavail *ShardUnavailableError
	if !errors.As(searchErr, &unavail) {
		t.Fatalf("error %v (%T), want *ShardUnavailableError", searchErr, searchErr)
	}
	if unavail.Shard != 1 {
		t.Fatalf("failed shard %d, want 1", unavail.Shard)
	}
	if unavail.Attempts < 2 {
		t.Fatalf("%d attempts, want >= 2 (1 try + 1 retry)", unavail.Attempts)
	}

	st, err := w.de.Stream(ctx, q.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sawError bool
	for ev := range st.Events() {
		if _, ok := ev.(ErrorEvent); ok {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("stream did not emit an ErrorEvent terminal")
	}
	if !errors.As(st.Err(), &unavail) {
		t.Fatalf("stream Err() = %v, want *ShardUnavailableError", st.Err())
	}
	if st.Result() != nil {
		t.Fatal("failed stream still produced a result")
	}
	if w.de.Deployment().Dist.ShardErrors == 0 {
		t.Fatal("shard errors not counted")
	}
}

// TestDistDefaultReplicaPolicy pins the one replica policy every
// deployment runs: a shard whose only replica dies after validation fails
// after 1 try + shardRetries retries, having slept the doubling backoff
// (5 + 10 + 20 ms, each at no less than half under its ±50% jitter).
func TestDistDefaultReplicaPolicy(t *testing.T) {
	ds, e := tinyWorld(t, 3)
	w := distOver(t, e, 2, 1)
	w.servers[1][0].CloseClientConnections()
	w.servers[1][0].Close()

	start := time.Now()
	_, err := w.de.Search(context.Background(), shardedWorkload(ds)[0].Graph, Options{K: 5, Tau: 0.5, MaxHops: 3})
	elapsed := time.Since(start)
	var unavail *ShardUnavailableError
	if !errors.As(err, &unavail) {
		t.Fatalf("error %v (%T), want *ShardUnavailableError", err, err)
	}
	if unavail.Attempts != 4 {
		t.Fatalf("%d attempts, want 4 (1 try + 3 retries)", unavail.Attempts)
	}
	if floor := 17500 * time.Microsecond; elapsed < floor {
		t.Fatalf("failed after %v, want >= %v of backoff", elapsed, floor)
	}
}

// TestDistFailoverDeadReplica: with two replicas per shard, killing one
// replica of every shard still yields the exact answer — the retry loop
// rotates to the live sibling.
func TestDistFailoverDeadReplica(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 42)
	set, err := shard.Partition(e.Graph(), shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var killable []*httptest.Server
	hosts := make([][]string, 2)
	for i := 0; i < 2; i++ {
		for r := 0; r < 2; r++ {
			srv, err := shard.NewServer(set.Shard(i))
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			t.Cleanup(hs.Close)
			hosts[i] = append(hosts[i], hs.URL)
			if r == 0 {
				killable = append(killable, hs)
			}
		}
	}
	de, err := NewDistEngine(e, hosts)
	if err != nil {
		t.Fatal(err)
	}
	withPolicy(de, 3, time.Millisecond, -1)
	for _, hs := range killable {
		hs.CloseClientConnections()
		hs.Close()
	}
	for _, q := range shardedWorkload(ds)[:4] {
		opts := Options{K: 5, Tau: 0.5, MaxHops: 3}
		want, err := e.Search(ctx, q.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := de.Search(ctx, q.Graph, opts)
		if err != nil {
			t.Fatalf("%s: failover search failed: %v", q.Name, err)
		}
		assertTopKEquivalent(t, q.Name+"/failover", got, want)
	}
}

// TestDistHedgedSlowReplica: a replica that stalls before its first
// response line triggers a hedge onto its sibling, and the answer stays
// exact. Both replicas serve identical shard state, so whichever wins
// the race produces the same stream.
func TestDistHedgedSlowReplica(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 17)
	set, err := shard.Partition(e.Graph(), shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var stall atomic.Bool
	stall.Store(true)
	hosts := make([][]string, 2)
	for i := 0; i < 2; i++ {
		srv, err := shard.NewServer(set.Shard(i))
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		for r := 0; r < 2; r++ {
			slow := r == 0
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				if slow && stall.Load() && req.URL.Path != "/v1/shard/meta" {
					time.Sleep(150 * time.Millisecond)
				}
				h.ServeHTTP(w, req)
			}))
			t.Cleanup(hs.Close)
			hosts[i] = append(hosts[i], hs.URL)
		}
	}
	de, err := NewDistEngine(e, hosts)
	if err != nil {
		t.Fatal(err)
	}
	withPolicy(de, shardRetries, retryBackoff, 2*time.Millisecond)
	q := shardedWorkload(ds)[1]
	opts := Options{K: 5, Tau: 0.5, MaxHops: 3}
	want, err := e.Search(ctx, q.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := de.Search(ctx, q.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertTopKEquivalent(t, q.Name+"/hedged", got, want)
	if de.Deployment().Dist.Hedges == 0 {
		t.Fatal("stalled replica produced no hedges")
	}
	// With the stall lifted the deployment serves normally again.
	stall.Store(false)
	if _, err := de.Search(ctx, q.Graph, opts); err != nil {
		t.Fatal(err)
	}
}

// proxiedDist builds a 2-shard deployment where every replica sits
// behind a faultinject proxy, and returns the proxies for scripting.
func proxiedDist(t *testing.T, e *Engine, replicas int) (*Engine, [][]*faultinject.Proxy) {
	t.Helper()
	set, err := shard.Partition(e.Graph(), shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([][]string, 2)
	proxies := make([][]*faultinject.Proxy, 2)
	for i := 0; i < 2; i++ {
		for r := 0; r < replicas; r++ {
			srv, err := shard.NewServer(set.Shard(i))
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			t.Cleanup(hs.Close)
			u, err := url.Parse(hs.URL)
			if err != nil {
				t.Fatal(err)
			}
			p, err := faultinject.NewProxy(u.Host)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			hosts[i] = append(hosts[i], p.URL())
			proxies[i] = append(proxies[i], p)
		}
	}
	de, err := NewDistEngine(e, hosts)
	if err != nil {
		t.Fatal(err)
	}
	return de, proxies
}

// TestDistChaosOffsetResume: the single replica of each shard severs its
// first search connection mid-response; the retry must resume the
// deterministic stream by offset on a fresh connection and produce the
// exact answer.
func TestDistChaosOffsetResume(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 3)
	de, proxies := proxiedDist(t, e, 1)
	withPolicy(de, 3, time.Millisecond, 0)
	for _, reps := range proxies {
		for _, p := range reps {
			var first atomic.Bool
			first.Store(true)
			p.SetScript(func() *faultinject.Script {
				if first.CompareAndSwap(true, false) {
					// Mid-response: past the status line and into the
					// headers or body of the first search stream.
					return faultinject.NewScript(faultinject.Point{After: 180, Op: faultinject.Sever})
				}
				return nil
			})
		}
	}
	for _, q := range shardedWorkload(ds)[:4] {
		opts := Options{K: 5, Tau: 0.5, MaxHops: 3}
		want, err := e.Search(ctx, q.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := de.Search(ctx, q.Graph, opts)
		if err != nil {
			t.Fatalf("%s: severed-then-resumed search failed: %v", q.Name, err)
		}
		assertTopKEquivalent(t, q.Name+"/sever-resume", got, want)
	}
}

// TestDistChaosScripted drives the full fault vocabulary — delay,
// truncate, sever — against a replicated deployment: every outcome must
// be either the exact answer or a typed ShardUnavailableError, never a
// wrong top-k and never a hang past the deadline.
func TestDistChaosScripted(t *testing.T) {
	ds, e := tinyWorld(t, 42)
	de, proxies := proxiedDist(t, e, 2)
	withPolicy(de, 2, time.Millisecond, 5*time.Millisecond)
	q := shardedWorkload(ds)[2]
	opts := Options{K: 5, Tau: 0.5, MaxHops: 3}
	want, err := e.Search(context.Background(), q.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}

	scripts := map[string]func() *faultinject.Script{
		"delay": func() *faultinject.Script {
			return faultinject.NewScript(faultinject.Point{After: 120, Op: faultinject.Delay, Pause: 30 * time.Millisecond})
		},
		"truncate": func() *faultinject.Script {
			return faultinject.NewScript(faultinject.Point{After: 180, Op: faultinject.Truncate})
		},
		"sever": func() *faultinject.Script {
			return faultinject.NewScript(faultinject.Point{After: 180, Op: faultinject.Sever})
		},
	}
	for name, script := range scripts {
		t.Run(name, func(t *testing.T) {
			// Fault replica 0 of both shards; replica 1 stays clean, so
			// hedge/retry/failover must converge on the exact answer.
			for i := range proxies {
				proxies[i][0].SetScript(script)
				proxies[i][1].SetScript(nil)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			got, err := de.Search(ctx, q.Graph, opts)
			if err != nil {
				t.Fatalf("faulty-replica search failed: %v", err)
			}
			assertTopKEquivalent(t, q.Name+"/"+name, got, want)
		})
	}

	t.Run("all-replicas-severed", func(t *testing.T) {
		// Both replicas of shard 0 sever every connection immediately:
		// no live replica remains, so the search must fail typed — and
		// fast, not at the context deadline.
		severEverything := func() *faultinject.Script {
			return faultinject.NewScript(faultinject.Point{After: 0, Op: faultinject.Sever})
		}
		proxies[0][0].SetScript(severEverything)
		proxies[0][1].SetScript(severEverything)
		proxies[1][0].SetScript(nil)
		proxies[1][1].SetScript(nil)
		proxies[0][0].SeverAll()
		proxies[0][1].SeverAll()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, err := de.Search(ctx, q.Graph, opts)
		var unavail *ShardUnavailableError
		if !errors.As(err, &unavail) {
			t.Fatalf("error %v (%T), want *ShardUnavailableError", err, err)
		}
		if unavail.Shard != 0 {
			t.Fatalf("failed shard %d, want 0", unavail.Shard)
		}
		if ctx.Err() != nil {
			t.Fatal("partitioned-shard search ran into the deadline instead of failing fast")
		}
		// Restore the partition: the same deployment must serve exactly
		// again (no poisoned state).
		proxies[0][0].SetScript(nil)
		proxies[0][1].SetScript(nil)
		got, err := de.Search(context.Background(), q.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertTopKEquivalent(t, q.Name+"/healed", got, want)
	})
}

// TestDistCallerCancellation: the caller's deadline expiring mid-scatter
// winds the distributed search down as an anytime partial (the base
// engine's documented contract), not as a shard failure and not a hang.
func TestDistCallerCancellation(t *testing.T) {
	ds, e := tinyWorld(t, 17)
	de, proxies := proxiedDist(t, e, 1)
	withPolicy(de, 1, time.Millisecond, 0)
	// Stall every first line long enough that the context fires first.
	for i := range proxies {
		proxies[i][0].SetScript(func() *faultinject.Script {
			return faultinject.NewScript(faultinject.Point{After: 0, Op: faultinject.Delay, Pause: 2 * time.Second})
		})
	}
	q := shardedWorkload(ds)[0]
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		defer close(done)
		res, err = de.Search(ctx, q.Graph, Options{K: 5, Tau: 0.5, MaxHops: 3})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled search hung")
	}
	var unavail *ShardUnavailableError
	if errors.As(err, &unavail) {
		t.Fatalf("caller cancellation misreported as shard failure: %v", err)
	}
	if err == nil && res == nil {
		t.Fatal("nil result with nil error")
	}
}

// TestDistEngineOverLargeStream smoke-checks the streaming generator
// world end to end through HTTP shards: partition, serve, search, and
// match the single engine.
func TestDistEngineOverLargeStream(t *testing.T) {
	if testing.Short() {
		t.Skip("large-world smoke test")
	}
	ctx := context.Background()
	p := datagen.LargeWorld(20_000)
	p.Seed = 7
	g := datagen.GenerateLarge(p)
	sp, err := (&embed.Model{Cfg: embed.Config{Dim: 16}}).SpaceFor(g)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	de := distOver(t, e, 4, 1).de
	for i, q := range datagen.LargeQueries(g, p, 5) {
		opts := Options{K: 10, Tau: 0.5, MaxHops: 3}
		want, err := e.Search(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := de.Search(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertTopKEquivalent(t, "large-"+string(rune('a'+i)), got, want)
	}
}

// TestDistReusesConnections: the coordinator's HTTP client keeps its
// connections to the shard servers alive across streams and runs, so the
// distributed path does not pay a dial per (shard, sub-query) stream. Two
// shards, the sharded workload five times over: fewer connections are
// opened than runs are made. K exceeds every answer set, so the assembly
// drains every stream instead of cancelling it part-read.
func TestDistReusesConnections(t *testing.T) {
	ds, e := tinyWorld(t, 3)
	set, err := shard.Partition(e.Graph(), shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var conns, streams atomic.Int64
	hosts := make([][]string, set.Len())
	for i := range hosts {
		srv, err := shard.NewServer(set.Shard(i))
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			streams.Add(1)
			h.ServeHTTP(w, r)
		}))
		hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				conns.Add(1)
			}
		}
		hs.Start()
		t.Cleanup(hs.Close)
		hosts[i] = []string{hs.URL}
	}
	de, err := NewDistEngine(e, hosts)
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	for pass := 0; pass < 5; pass++ {
		for _, q := range shardedWorkload(ds) {
			if _, err := de.Search(context.Background(), q.Graph, Options{K: 1000, Tau: 0.5, MaxHops: 3}); err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			runs++
		}
	}
	if n := conns.Load(); n >= int64(runs) {
		t.Fatalf("%d connections opened for %d runs and %d requests, want fewer than the runs", n, runs, streams.Load())
	}
	t.Logf("%d connections for %d runs and %d requests", conns.Load(), runs, streams.Load())
}
