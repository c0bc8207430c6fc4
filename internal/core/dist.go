// Distributed scatter-gather execution: NewDistEngine derives the
// coordinator half of the multi-process sharded pipeline (semkgd
// -shard-hosts). It is the engine's one gather pipeline run over remote
// match sources: queries compile once, globally, against the
// coordinator's own base graph — exactly as for an in-process partition —
// and each (shard, sub-query) search streams over HTTP from a shard
// server (shard.Server, semkgd -serve-shard) instead of a goroutine-local
// searcher.
//
// Exactness across the process boundary rests on the same three
// invariants as the in-process sharded engine (see sharded.go and
// DESIGN.md, "Scatter-gather"): first-hop ownership partitions the path
// space, semantics are resolved once globally and only *projected*
// remotely, and the gather is deterministically tie-broken. The wire
// adds a fourth: shard streams are deterministic per (shard snapshot,
// request), so replicas are interchangeable mid-stream — a consumed
// prefix of one replica's stream plus the Offset-resumed suffix of
// another's is byte-identical to either stream whole.
//
// Failure policy, all of it behind the remote source: requests to a
// shard's replicas are hedged after a per-replica latency-EWMA threshold,
// failed attempts are retried with capped jittered backoff on the next
// replica (resuming mid-stream via Offset), and a shard whose every
// replica is dead fails the search with a typed *ShardUnavailableError —
// never a silently partial (and therefore possibly wrong) top-k, never a
// hang past the caller's deadline.

package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semkg/internal/astar"
	"semkg/internal/kg"
	"semkg/internal/shardwire"
)

// The coordinator's replica policy: fixed, so every deployment runs the
// one policy the tests pin.
const (
	// hedgeUnobserved is the hedge delay before a replica's first
	// first-line latency observation; afterwards it is twice the
	// replica's EWMA, clamped to [hedgeMin, hedgeMax].
	hedgeUnobserved = 25 * time.Millisecond
	hedgeMin        = time.Millisecond
	hedgeMax        = 100 * time.Millisecond
	// shardRetries is the extra attempts per (shard, sub-query) stream
	// after the first fails, rotating replicas.
	shardRetries = 3
	// retryBackoff is the base backoff between attempts; it doubles per
	// attempt, capped at retryBackoffCap times, with ±50% jitter.
	retryBackoff    = 5 * time.Millisecond
	retryBackoffCap = 32
	// metaTimeout bounds the construction-time metadata fetch per replica.
	metaTimeout = 5 * time.Second
)

// ShardUnavailableError reports that a distributed search could not
// complete because every replica of one shard failed past the retry
// budget. It is a typed partial-result error: the coordinator refuses to
// assemble a top-k missing a shard's matches (the ranking could silently
// be wrong), so the search fails loudly instead. semkgd maps it to HTTP
// 502.
type ShardUnavailableError struct {
	// Shard and Sub locate the (shard, sub-query) stream that failed.
	Shard int
	Sub   int
	// Attempts counts the attempts made across replicas.
	Attempts int
	// Err is the last attempt's failure.
	Err error
}

// Error implements error.
func (e *ShardUnavailableError) Error() string {
	return fmt.Sprintf("core: shard %d unavailable for sub-query %d after %d attempts: %v",
		e.Shard, e.Sub, e.Attempts, e.Err)
}

// Unwrap exposes the last attempt's failure.
func (e *ShardUnavailableError) Unwrap() error { return e.Err }

// DistStats is a point-in-time summary of the coordinator, exported by
// semkgd under the "semkgd_dist" expvar key.
type DistStats struct {
	// Shards and Halo echo the remote partition; Replicas is the replica
	// count per shard.
	Shards   int   `json:"shards"`
	Halo     int   `json:"halo"`
	Replicas []int `json:"replicas"`
	// Searches counts distributed pipeline executions; Fallbacks counts
	// searches answered by the local base engine (MaxHops beyond the
	// halo).
	Searches  uint64 `json:"dist_searches"`
	Fallbacks uint64 `json:"local_fallbacks"`
	// Hedges counts duplicate requests launched on a slow replica's
	// sibling; Retries counts re-attempts after failures; Failovers
	// counts replica rotations within those retries.
	Hedges    uint64 `json:"hedges"`
	Retries   uint64 `json:"retries"`
	Failovers uint64 `json:"failovers"`
	// ShardErrors counts searches failed with ShardUnavailableError.
	ShardErrors uint64 `json:"shard_errors"`
}

// distBackend opens one HTTP match source per (shard, sub-query) and holds
// the replica policy state they share.
type distBackend struct {
	hosts [][]string // hosts[shard] = replica base URLs
	halo  int
	// The replica policy, set from the package constants; tests in this
	// package shorten it after construction. hedgeAfter != 0 fixes the
	// hedge delay (negative disables hedging) instead of adapting it.
	hedgeAfter time.Duration
	maxRetries int
	backoff    time.Duration
	// client is dedicated, with the default transport: no global timeout,
	// since streams are long-lived and cancellation rides the request
	// context.
	client *http.Client

	// ewmaNs[shard][replica] is the EWMA of the replica's time-to-first-
	// line, feeding the adaptive hedge threshold. 0 = no observation yet.
	ewmaNs [][]atomic.Int64
	rr     atomic.Uint64 // round-robin start replica, for load spread

	hedges      atomic.Uint64
	retries     atomic.Uint64
	failovers   atomic.Uint64
	shardErrors atomic.Uint64
}

// NewDistEngine derives from base (whose whole graph serves global
// compilation, answer rendering and halo fallbacks) a scatter-gather
// coordinator over remote shard servers, which gathers its runs from one
// remote source per (shard, sub-query). hosts[s] lists the replica base
// URLs serving shard s; every replica must be reachable and must validate
// against the base graph at construction (shard count, halo, and sampled
// node names must agree — a stale or foreign shard snapshot is rejected
// rather than silently producing wrong search results). Replicas may die
// later; searches then hedge, retry and fail over.
func NewDistEngine(base *Engine, hosts [][]string) (*Engine, error) {
	if base == nil {
		return nil, fmt.Errorf("core: nil base engine")
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("core: no shard hosts")
	}
	b := &distBackend{hosts: make([][]string, len(hosts)), halo: -1, client: &http.Client{},
		maxRetries: shardRetries, backoff: retryBackoff}
	b.ewmaNs = make([][]atomic.Int64, len(hosts))
	for s, reps := range hosts {
		if len(reps) == 0 {
			return nil, fmt.Errorf("core: shard %d has no replicas", s)
		}
		for _, h := range reps {
			b.hosts[s] = append(b.hosts[s], strings.TrimRight(h, "/"))
		}
		b.ewmaNs[s] = make([]atomic.Int64, len(reps))
	}
	// Validate every replica once, caching per distinct URL (one process
	// may serve several shards, and a URL may replicate several shards).
	metas := make(map[string]*shardwire.Meta)
	for s, reps := range b.hosts {
		for _, h := range reps {
			meta, ok := metas[h]
			if !ok {
				var err error
				meta, err = b.fetchMeta(h)
				if err != nil {
					return nil, fmt.Errorf("core: shard %d replica %s: %w", s, h, err)
				}
				metas[h] = meta
			}
			if err := b.validateReplica(base.Graph(), meta, s, h); err != nil {
				return nil, err
			}
		}
	}
	ss := &sourceSet{backend: b, shards: len(b.hosts)}
	return base.over(ss), nil
}

func (b *distBackend) fetchMeta(host string) (*shardwire.Meta, error) {
	ctx, cancel := context.WithTimeout(context.Background(), metaTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, host+shardwire.PathMeta, nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("meta fetch: HTTP %d", resp.StatusCode)
	}
	var meta shardwire.Meta
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&meta); err != nil {
		return nil, fmt.Errorf("parsing meta: %w", err)
	}
	return &meta, nil
}

// validateReplica cross-checks one replica's claim to serve shard s of
// the coordinator's world g.
func (b *distBackend) validateReplica(g *kg.Graph, meta *shardwire.Meta, s int, host string) error {
	for i := range meta.Shards {
		info := &meta.Shards[i]
		if info.Index != s {
			continue
		}
		if info.Shards != len(b.hosts) {
			return fmt.Errorf("core: replica %s partitions into %d shards, coordinator expects %d",
				host, info.Shards, len(b.hosts))
		}
		if b.halo == -1 {
			b.halo = info.Halo
		} else if info.Halo != b.halo {
			return fmt.Errorf("core: replica %s has halo %d, other replicas have %d", host, info.Halo, b.halo)
		}
		if int(info.MaxGlobalNode) >= g.NumNodes() {
			return fmt.Errorf("core: replica %s shard %d maps node %d beyond the base graph's %d nodes (stale shard snapshot?)",
				host, s, info.MaxGlobalNode, g.NumNodes())
		}
		for _, sm := range info.Samples {
			if g.NodeName(kg.NodeID(sm.ID)) != sm.Name {
				return fmt.Errorf("core: replica %s shard %d names node %d %q, base graph says %q (stale shard snapshot?)",
					host, s, sm.ID, sm.Name, g.NodeName(kg.NodeID(sm.ID)))
			}
		}
		return nil
	}
	return fmt.Errorf("core: replica %s does not hold shard %d", host, s)
}

func (b *distBackend) stats(ss *sourceSet) DistStats {
	st := DistStats{
		Shards:      ss.shards,
		Halo:        b.halo,
		Searches:    ss.searches.Load(),
		Fallbacks:   ss.fallbacks.Load(),
		Hedges:      b.hedges.Load(),
		Retries:     b.retries.Load(),
		Failovers:   b.failovers.Load(),
		ShardErrors: b.shardErrors.Load(),
	}
	for _, reps := range b.hosts {
		st.Replicas = append(st.Replicas, len(reps))
	}
	return st
}

// serves: the remote shard graphs cannot contain paths longer than the
// halo. A time bound and its Clock stay on the coordinator, whose deadline
// refuses further pulls from the remote streams.
func (b *distBackend) serves(opts Options) bool {
	return opts.MaxHops <= b.halo
}

// open starts one remote source per (shard, sub-query); each streams ahead
// of the assembly from the moment it opens. Every shard server takes the
// same wire blueprint and projects it into its own id space itself.
func (b *distBackend) open(ctx context.Context, p *Plan) ([][]matchSource, func() error, error) {
	wire, err := p.WireBlueprints()
	if err != nil {
		return nil, nil, err
	}
	// The scatter's context doubles as its failure slot: the first source
	// to exhaust its retries cancels it with the typed error as the cause,
	// so the query fails fast instead of finishing a doomed assembly.
	fctx, cancel := context.WithCancelCause(ctx)
	sources := make([][]matchSource, len(p.subs))
	var wg sync.WaitGroup
	for shard := range b.hosts { // shard-major: the merger's tie-break order
		for sub := range p.subs {
			src := &remoteSource{b: b, ctx: fctx, fail: cancel, shard: shard, sub: sub,
				req: shardwire.SearchRequest{
					Shard:        shard,
					Sub:          sub,
					Blueprint:    wire[sub],
					Tau:          p.copts.tau,
					MaxHops:      p.copts.maxHops,
					NoHeuristic:  p.copts.noHeuristic,
					PruneVisited: p.copts.pruneVisited,
				},
				ch: make(chan astar.Match, remoteSourceBuffer),
			}
			sources[sub] = append(sources[sub], src)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(src.ch)
				src.retryLoop()
			}()
		}
	}
	finish := func() error {
		cancel(nil) // release sources the assembly never drained
		wg.Wait()   // all source goroutines stopped: safe to read their state
		var unavail *ShardUnavailableError
		if errors.As(context.Cause(fctx), &unavail) {
			b.shardErrors.Add(1)
			return unavail
		}
		return nil // finished, or the caller cancelled: an anytime result
	}
	return sources, finish, nil
}

// remoteSourceBuffer is the per-source match channel capacity: the
// distributed analogue of the in-process prefetch — sources stream ahead
// of the assembly by up to this many matches.
const remoteSourceBuffer = 64

// remoteSource is the HTTP match source: one (shard, sub-query) stream
// fetched from the shard's replicas — hedging, retrying and failing over
// across them. A background goroutine pumps matches into a buffered
// channel that Next drains. On unrecoverable failure it cancels the whole
// scatter with a typed error.
type remoteSource struct {
	b    *distBackend
	ctx  context.Context
	fail context.CancelCauseFunc

	shard, sub int
	req        shardwire.SearchRequest
	ch         chan astar.Match

	// pushed counts matches delivered downstream: the Offset resume point
	// for mid-stream failover. Owned by the pump goroutine.
	pushed int

	// stats is the terminal line's effort report, read only after the pump
	// goroutine exited.
	stats astar.Stats
}

// Next implements matchSource.
func (src *remoteSource) Next() (astar.Match, bool) {
	m, ok := <-src.ch
	return m, ok
}

// Stats implements matchSource. A source cancelled before its terminal
// line reports zeros — the remote search was abandoned mid-stream and its
// true effort never crossed the wire.
func (src *remoteSource) Stats() astar.Stats { return src.stats }

// Shard implements matchSource.
func (src *remoteSource) Shard() int { return src.shard + 1 }

// retryLoop runs attempts until one succeeds, the context dies (the
// caller cancelled or another source failed — not this source's fault),
// or the retry budget is spent, which records the typed shard failure.
func (src *remoteSource) retryLoop() {
	reps := src.b.hosts[src.shard]
	rep := int(src.b.rr.Add(1)) % len(reps)
	backoff := src.b.backoff
	attempts := 0
	for {
		if src.ctx.Err() != nil {
			return
		}
		err := src.attempt(rep)
		if err == nil || src.ctx.Err() != nil {
			return
		}
		attempts++
		if attempts > src.b.maxRetries {
			src.fail(&ShardUnavailableError{Shard: src.shard, Sub: src.sub, Attempts: attempts, Err: err})
			return
		}
		src.b.retries.Add(1)
		if !sleepCtx(src.ctx, jitterDuration(backoff)) {
			return
		}
		if backoff < src.b.backoff*retryBackoffCap {
			backoff *= 2
		}
		if len(reps) > 1 {
			rep = (rep + 1) % len(reps)
			src.b.failovers.Add(1)
		}
	}
}

// attempt opens one stream (resuming past the matches already delivered)
// and pumps it to the terminal line.
func (src *remoteSource) attempt(rep int) error {
	req := src.req
	req.Offset = src.pushed
	ws, err := src.b.openStream(src.ctx, src.shard, rep, &req)
	if err != nil {
		return err
	}
	defer ws.Close()
	for {
		line, err := ws.next()
		if err != nil {
			return fmt.Errorf("core: shard %d stream: %w", src.shard, err)
		}
		if line.Error != "" {
			return fmt.Errorf("core: shard %d remote error: %s", src.shard, line.Error)
		}
		if line.Done {
			src.stats = wireStats(line.Stats)
			return nil
		}
		select {
		case src.ch <- lineMatch(line):
			src.pushed++
		case <-src.ctx.Done():
			return nil // cancelled: retryLoop sees ctx.Err and exits cleanly
		}
	}
}

// wireStream is one open search response: the winning replica's body
// with its eagerly-read first line pending.
type wireStream struct {
	lr      *shardwire.LineReader
	body    io.ReadCloser
	cancel  context.CancelFunc
	pending *shardwire.Line
}

func (ws *wireStream) next() (shardwire.Line, error) {
	if ws.pending != nil {
		l := *ws.pending
		ws.pending = nil
		return l, nil
	}
	return ws.lr.Next()
}

func (ws *wireStream) Close() {
	ws.cancel()
	ws.body.Close()
}

// openStream opens the search on replica rep, hedging onto the next
// replica when the first response line has not arrived within the hedge
// threshold. The winner's stream is returned; the loser is cancelled.
func (b *distBackend) openStream(ctx context.Context, shard, rep int, req *shardwire.SearchRequest) (*wireStream, error) {
	reps := b.hosts[shard]
	delay := b.hedgeDelay(shard, rep)
	if len(reps) < 2 || delay <= 0 {
		return b.openOne(ctx, shard, rep, req)
	}
	type opened struct {
		ws  *wireStream
		err error
	}
	launch := func(r int) chan opened {
		ch := make(chan opened, 1)
		go func() {
			ws, err := b.openOne(ctx, shard, r, req)
			ch <- opened{ws, err}
		}()
		return ch
	}
	abandon := func(ch chan opened) {
		go func() {
			if o := <-ch; o.ws != nil {
				o.ws.Close()
			}
		}()
	}
	first := launch(rep)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var second chan opened
	for {
		select {
		case o := <-first:
			if o.err == nil {
				if second != nil {
					abandon(second)
				}
				return o.ws, nil
			}
			if second == nil {
				return nil, o.err // failed before the hedge fired: retryLoop rotates
			}
			if o2 := <-second; o2.err == nil {
				return o2.ws, nil
			}
			return nil, o.err
		case o2 := <-second: // nil until the hedge launches (blocks forever)
			if o2.err == nil {
				abandon(first)
				return o2.ws, nil
			}
			second = nil // hedge failed; keep waiting on the primary
		case <-timer.C:
			b.hedges.Add(1)
			second = launch((rep + 1) % len(reps))
		case <-ctx.Done():
			abandon(first)
			if second != nil {
				abandon(second)
			}
			return nil, ctx.Err()
		}
	}
}

// openOne issues one search request and blocks until the first response
// line (so hedging covers server-side compute stalls, not just connect
// latency), recording the replica's first-line latency EWMA.
func (b *distBackend) openOne(ctx context.Context, shard, rep int, req *shardwire.SearchRequest) (*wireStream, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	actx, cancel := context.WithCancel(ctx)
	hr, err := http.NewRequestWithContext(actx, http.MethodPost,
		b.hosts[shard][rep]+shardwire.PathSearch, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := b.client.Do(hr)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("HTTP %d from %s: %s", resp.StatusCode, b.hosts[shard][rep], strings.TrimSpace(string(msg)))
	}
	lr := shardwire.NewLineReader(resp.Body)
	line, err := lr.Next()
	if err != nil {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("reading first response line: %w", err)
	}
	b.observeLatency(shard, rep, time.Since(start))
	return &wireStream{lr: lr, body: resp.Body, cancel: cancel, pending: &line}, nil
}

// observeLatency folds one first-line latency into the replica's EWMA
// (α = 1/4).
func (b *distBackend) observeLatency(shard, rep int, d time.Duration) {
	slot := &b.ewmaNs[shard][rep]
	for {
		old := slot.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old - old/4 + int64(d)/4
		}
		if next <= 0 {
			next = 1
		}
		if slot.CompareAndSwap(old, next) {
			return
		}
	}
}

// hedgeDelay is the wait before duplicating a request onto the next
// replica: twice the replica's first-line EWMA clamped to [hedgeMin,
// hedgeMax], or hedgeUnobserved before any observation. <= 0 disables
// hedging.
func (b *distBackend) hedgeDelay(shard, rep int) time.Duration {
	if b.hedgeAfter != 0 {
		return b.hedgeAfter
	}
	e := time.Duration(b.ewmaNs[shard][rep].Load())
	if e == 0 {
		return hedgeUnobserved
	}
	return min(max(2*e, hedgeMin), hedgeMax)
}

// lineMatch rebuilds an astar.Match (in base-graph ids) from its wire
// line.
func lineMatch(l shardwire.Line) astar.Match {
	m := astar.Match{
		Nodes:   make([]kg.NodeID, len(l.Nodes)),
		Edges:   make([]kg.EdgeID, len(l.Edges)),
		SegEnds: l.SegEnds,
		PSS:     l.PSS,
	}
	for i, u := range l.Nodes {
		m.Nodes[i] = kg.NodeID(u)
	}
	for i, e := range l.Edges {
		m.Edges[i] = kg.EdgeID(e)
	}
	return m
}

func wireStats(st *shardwire.SearchStats) astar.Stats {
	if st == nil {
		return astar.Stats{}
	}
	return astar.Stats(*st)
}

// sleepCtx sleeps d or until ctx dies; reports false on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// jitterDuration spreads d by ±50% so synchronized retries from many
// sources do not stampede a recovering replica.
func jitterDuration(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(int64(d)))
}
