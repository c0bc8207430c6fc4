// Replica experiment: the failure-handling numbers that back the
// replication chapter — all measured against real HTTP streams and real
// fault injection, never modeled. Three measurements: recovery time
// after a follower is killed mid-delta-stream (reconnect + catch-up),
// live-QPS through a primary kill and follower promotion (the failover
// dip), and catch-up time as a function of the delta backlog accumulated
// while the follower was down (including the forced snapshot-resync once
// compaction passes the follower's generation).
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"semkg/internal/api"
	"semkg/internal/core"
	"semkg/internal/datagen"
	"semkg/internal/embed"
	"semkg/internal/faultinject"
	"semkg/internal/kg"
	"semkg/internal/replica"
	"semkg/internal/serve"
)

// replicaLogCap keeps the primary's statement log small enough that the
// largest backlog overruns it, forcing the snapshot-resync path into
// the measurement set.
const replicaLogCap = 600

// prefixSpace builds the predicate space for a follower graph that is a
// replayed prefix of the primary's: the replication stream reproduces
// the primary's predicate intern order, so positions align with the
// trained space.
func prefixSpace(sp *embed.Space) func(*kg.Graph) (*core.Engine, error) {
	return func(g *kg.Graph) (*core.Engine, error) {
		names := g.Predicates()
		vecs := make([]embed.Vector, len(names))
		for i, n := range names {
			if sp.Name(i) != n {
				return nil, fmt.Errorf("bench: follower predicate %d is %q, trained space has %q", i, n, sp.Name(i))
			}
			vecs[i] = sp.Vector(i)
		}
		sub, err := embed.NewSpace(names, vecs)
		if err != nil {
			return nil, err
		}
		return core.NewEngine(g, sub, nil)
	}
}

// replicaPair wires a primary (over the env graph, serving /v1/search
// and /v1/replicate) and an empty-booted follower tailing it through a
// fault-injection proxy.
type replicaPair struct {
	primary  *replica.Primary
	follower *replica.Follower
	proxy    *faultinject.Proxy
	ts       *httptest.Server
	stop     context.CancelFunc
}

func newReplicaPair(env *Env) (*replicaPair, error) {
	build := func(g *kg.Graph) (*core.Engine, error) {
		return core.NewEngine(g, env.Space, env.Dataset.Library)
	}
	srvP := serve.New(env.Engine, serve.Config{Build: build})
	p := replica.NewPrimary(srvP, replica.Config{MaxLogStatements: replicaLogCap})

	mux := searchMux(srvP)
	mux.Handle("/v1/replicate", p)
	ts := httptest.NewServer(mux)

	proxy, err := faultinject.NewProxy(ts.Listener.Addr().String())
	if err != nil {
		ts.Close()
		return nil, err
	}

	fb := prefixSpace(env.Space)
	emptyEng, err := fb(kg.Empty())
	if err != nil {
		proxy.Close()
		ts.Close()
		return nil, err
	}
	srvF := serve.New(emptyEng, serve.Config{Build: fb})
	f := replica.NewFollower(srvF, replica.FollowerConfig{
		Source: proxy.URL(),
		Backoff: replica.Backoff{Min: 5 * time.Millisecond, Max: 100 * time.Millisecond,
			Rand: rand.New(rand.NewSource(11))},
	})
	ctx, cancel := context.WithCancel(context.Background())
	go f.Run(ctx)
	return &replicaPair{primary: p, follower: f, proxy: proxy, ts: ts, stop: cancel}, nil
}

func (rp *replicaPair) close() {
	rp.stop()
	rp.primary.Close()
	rp.proxy.Close()
	rp.ts.Close()
}

// snapshotEqual verifies convergence the strong way: byte-identical
// snapshots of both served graphs.
func snapshotEqual(a, b *serve.Engine) (bool, error) {
	var ba, bb bytes.Buffer
	if err := kg.WriteSnapshot(&ba, a.Engine().Graph()); err != nil {
		return false, err
	}
	if err := kg.WriteSnapshot(&bb, b.Engine().Graph()); err != nil {
		return false, err
	}
	return bytes.Equal(ba.Bytes(), bb.Bytes()), nil
}

// runReplica measures the replication failure-handling numbers.
func runReplica(ctx context.Context, p Params) (*Artifact, error) {
	env, err := p.env(datagen.DBpediaLike)
	if err != nil {
		return nil, err
	}
	art := env.artifact("replica")
	backlogs := []int{4, 16, 64}
	if p.Short {
		backlogs = []int{4, 16}
	}
	for _, b := range backlogs {
		if err := measureCatchup(ctx, art, env, b); err != nil {
			return nil, err
		}
	}
	if err := measureFailover(ctx, art, env, p.Short); err != nil {
		return nil, err
	}
	return art, nil
}

// measureCatchup kills the follower's link mid-delta-stream, commits a
// backlog of deltas while reconnects are refused, then opens the link
// and times recovery (recovery_ms) from that moment until the follower
// serves the primary's head. snapshot_resync is 1 when the catch-up fell
// back to a full snapshot (the primary compacted past the follower's
// generation) instead of resuming the delta stream; converged is the
// snapshot-byte equality check of the recovered follower.
func measureCatchup(ctx context.Context, art *Artifact, env *Env, backlog int) error {
	rp, err := newReplicaPair(env)
	if err != nil {
		return err
	}
	defer rp.close()
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()

	// Bootstrap, plus a couple of live deltas so the kill lands in the
	// delta flow, not the snapshot.
	for i := 0; i < 2; i++ {
		d, err := ingestDelta(rp.primary.Serve().Engine().Graph(), 10, int64(100+i))
		if err != nil {
			return err
		}
		if _, err := rp.primary.Commit(d); err != nil {
			return err
		}
	}
	if err := rp.follower.WaitSynced(ctx, rp.primary.Head()); err != nil {
		return err
	}

	// Kill mid-stream and refuse reconnects: the follower is down. The
	// counters are read before the sever, so the severed stream itself
	// always counts as a reconnect however fast the follower notices.
	statsDown := rp.follower.Stats()
	var refused atomic.Bool
	refused.Store(true)
	rp.proxy.SetScript(func() *faultinject.Script {
		if refused.Load() {
			return faultinject.NewScript(faultinject.Point{After: 0, Op: faultinject.Sever})
		}
		return nil
	})
	rp.proxy.SeverAll()

	// The backlog accumulates while the follower is dark.
	for i := 0; i < backlog; i++ {
		d, err := ingestDelta(rp.primary.Serve().Engine().Graph(), 20, int64(1000+i))
		if err != nil {
			return err
		}
		if _, err := rp.primary.Commit(d); err != nil {
			return err
		}
	}

	// Open the link; the clock runs until the follower serves head.
	start := time.Now()
	refused.Store(false)
	if err := rp.follower.WaitSynced(ctx, rp.primary.Head()); err != nil {
		return err
	}
	recovery := time.Since(start)

	statsUp := rp.follower.Stats()
	converged, err := snapshotEqual(rp.follower.Serve(), rp.primary.Serve())
	if err != nil {
		return err
	}
	art.add("catch-up", fmt.Sprintf("%d deltas", backlog), map[string]float64{
		"backlog_deltas":  float64(backlog),
		"recovery_ms":     ms(recovery),
		"reconnects":      float64(statsUp.Reconnects - statsDown.Reconnects),
		"snapshot_resync": flag(statsUp.Resyncs > statsDown.Resyncs),
		"converged":       flag(converged),
	})
	return nil
}

func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// searchMux serves /v1/search over one serving engine with the api wire
// codec — the measurement client's target on both nodes.
func searchMux(srv *serve.Engine) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", func(w http.ResponseWriter, r *http.Request) {
		q, opts, err := api.DecodeSearchRequest(r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		res, err := srv.Search(r.Context(), q, opts)
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(api.ResultFrom(res))
	})
	return mux
}

// measureFailover runs a live query stream against the primary over
// real HTTP, kills the primary, promotes the synced follower, re-points
// the clients, and reports the QPS dip. dip_ms is the measured outage
// window: from the primary kill to the first successful request against
// the promoted follower, covering the controller's failure detection
// (health probes) plus the promotion and traffic re-point. The Sample's
// errors are the requests lost in that window; follower_lag_at_kill is
// the follower's replication lag (deltas) when the primary died — the
// data-loss exposure. The "failover timeline" rows are successful
// requests per bucket_ms bucket (kill and promotion land mid-timeline).
func measureFailover(ctx context.Context, art *Artifact, env *Env, short bool) error {
	qs, err := serveQueries(env)
	if err != nil {
		return err
	}
	opts := env.SearchOptions(10)
	rp, err := newReplicaPair(env)
	if err != nil {
		return err
	}
	defer rp.close()
	p, f, tsP := rp.primary, rp.follower, rp.ts
	tsF := httptest.NewServer(searchMux(f.Serve()))
	defer tsF.Close()

	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := f.WaitSynced(ctx, p.Head()); err != nil {
		return err
	}

	const bucketMs = 50
	const probeEvery = 20 * time.Millisecond
	phase := 500 * time.Millisecond // before-kill and after-promotion windows
	if short {
		phase = 250 * time.Millisecond
	}

	// The timeline and the dip's endpoints are shared between the client
	// goroutines and the orchestrator; one mutex guards them. The dip is
	// computed from real timestamps (the kill to the first success after),
	// not bucket edges — the buckets are only the artifact's timeline.
	var (
		mu        sync.Mutex
		timeline  []int
		killed    bool
		killAt    time.Time
		firstBack time.Time
	)
	startClock := time.Now()
	succeeded := func(url string) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		b := int(now.Sub(startClock) / (bucketMs * time.Millisecond))
		for len(timeline) <= b {
			timeline = append(timeline, 0)
		}
		timeline[b]++
		// Recovery means a success against the promoted follower — an
		// in-flight straggler completing against the dying primary just
		// after the kill must not end the measured dip.
		if killed && firstBack.IsZero() && url == tsF.URL {
			firstBack = now
		}
	}

	var target atomic.Pointer[string]
	target.Store(&tsP.URL)
	client := &http.Client{Timeout: 2 * time.Second}

	// Live clients hammer the routed URL until the orchestrator cancels
	// them — including through the outage. Failures during the dip are
	// counted, not retried: the dip is the thing being measured.
	const clients = 2
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(99 + int64(c)))
	}
	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()
	loaded := make(chan Sample, 1)
	go func() {
		loaded <- Drive(loadCtx, Load{Clients: clients}, func(ctx context.Context, c, _ int) error {
			url := *target.Load()
			body, err := json.Marshal(api.SearchRequest{
				Query: api.QueryFrom(qs[rngs[c].Intn(len(qs))]), Options: api.OptionsFrom(opts)})
			if err != nil {
				return err
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/search", bytes.NewReader(body))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			succeeded(url)
			return nil
		})
	}()

	// The failover controller is the piece a real deployment runs: probe
	// the primary, and on two consecutive failed probes stop tailing,
	// promote the follower, and re-point traffic. Its detection latency
	// (bounded by the probe interval) is part of the measured dip.
	promoted := make(chan *replica.Primary, 1)
	go func() {
		misses := 0
		probe := &http.Client{Timeout: probeEvery}
		for {
			time.Sleep(probeEvery)
			resp, err := probe.Get(tsP.URL + "/healthz")
			if err == nil {
				resp.Body.Close()
				misses = 0
				continue
			}
			if misses++; misses < 2 {
				continue
			}
			rp.stop()
			np := f.Promote(replica.Config{MaxLogStatements: replicaLogCap})
			target.Store(&tsF.URL)
			promoted <- np
			return
		}
	}()

	// Steady state, then the kill: replication primary closed first so
	// its streaming handler returns and the listener can shut down.
	time.Sleep(phase)
	lagAtKill := f.Stats().Lag
	mu.Lock()
	killed = true
	killAt = time.Now()
	mu.Unlock()
	p.Close()
	tsP.CloseClientConnections()
	tsP.Close()

	np := <-promoted
	defer np.Close()
	time.Sleep(phase)
	stopLoad()
	s := <-loaded

	values := map[string]float64{
		"follower_lag_at_kill": float64(lagAtKill),
		"bucket_ms":            bucketMs,
	}
	if !firstBack.IsZero() {
		values["dip_ms"] = ms(firstBack.Sub(killAt))
	}
	killBucket := int(killAt.Sub(startClock) / (bucketMs * time.Millisecond))
	before, after := 0, 0
	for i, n := range timeline {
		if i < killBucket {
			before += n
		} else if i > killBucket {
			after += n
		}
	}
	if beforeSecs := float64(killBucket*bucketMs) / 1000; beforeSecs > 0 {
		values["qps_before"] = float64(before) / beforeSecs
	}
	if afterSecs := float64((len(timeline)-killBucket-1)*bucketMs) / 1000; afterSecs > 0 {
		values["qps_after"] = float64(after) / afterSecs
	}
	art.add("failover", "live clients through kill + promotion", values).Sample = &s
	for i, n := range timeline {
		art.add("failover timeline", fmt.Sprintf("t=%dms", i*bucketMs), map[string]float64{"ok_requests": float64(n)})
	}
	return nil
}
