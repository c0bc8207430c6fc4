package replica

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"semkg/internal/api"
	"semkg/internal/kg"
	"semkg/internal/serve"
)

// Backoff is the reconnect schedule: attempt n (1-based) sleeps a
// uniformly jittered duration in [d/2, d] where d = Min·2^(n-1) capped
// at Max. Jitter keeps a fleet of followers from reconnecting in
// lockstep after a primary restart.
type Backoff struct {
	Min, Max time.Duration
	// Rand supplies jitter; nil means the global source. Tests inject a
	// seeded source for deterministic schedules.
	Rand *rand.Rand
}

// Delay returns the sleep before reconnect attempt n (1-based).
func (b Backoff) Delay(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := b.Min
	for i := 1; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	half := d / 2
	var j int64
	if half > 0 {
		if b.Rand != nil {
			j = b.Rand.Int63n(int64(half) + 1)
		} else {
			j = rand.Int63n(int64(half) + 1)
		}
	}
	return half + time.Duration(j)
}

// FollowerStats is a point-in-time view of a follower's replication
// state, for /healthz and expvar.
type FollowerStats struct {
	// Synced reports whether the follower has completed at least one
	// snapshot or resume and is inside a live stream epoch.
	Synced bool `json:"synced"`
	// Epoch is the primary incarnation being followed ("" before the
	// first hello).
	Epoch string `json:"epoch,omitempty"`
	// Generation is the last committed (published) generation.
	Generation uint64 `json:"generation"`
	// Head is the primary's head generation from the latest hello/ping.
	Head uint64 `json:"head"`
	// Lag is max(0, Head-Generation): committed-but-unapplied deltas.
	Lag uint64 `json:"lag"`
	// Reconnects counts stream (re)connection attempts that failed or
	// were severed; Resyncs counts full snapshot rebuilds.
	Reconnects uint64 `json:"reconnects"`
	Resyncs    uint64 `json:"resyncs"`
	// Primary is the advertised URL from the latest hello.
	Primary string `json:"primary,omitempty"`
}

// Follower tails a primary's /v1/replicate stream and applies it to a
// local serve engine. Run drives the reconnect loop; the engine serves
// reads the whole time, at whatever generation is locally committed.
type Follower struct {
	srv     *serve.Engine
	source  string // primary base URL
	client  *http.Client
	backoff Backoff

	mu      sync.Mutex
	epoch   string
	gen     uint64 // last locally committed primary generation
	synced  bool
	head    uint64
	primary string

	reconnects atomic.Uint64
	resyncs    atomic.Uint64

	// progress is closed and replaced on every commit — tests and the
	// promotion path wait on it instead of polling.
	progress chan struct{}
}

// FollowerConfig configures a Follower.
type FollowerConfig struct {
	// Source is the primary's base URL (e.g. "http://127.0.0.1:8375").
	Source string
	// Backoff overrides the reconnect schedule; zero means 50ms..2s.
	Backoff Backoff
}

// NewFollower wraps srv as a follower of the primary at cfg.Source.
func NewFollower(srv *serve.Engine, cfg FollowerConfig) *Follower {
	bo := cfg.Backoff
	if bo.Min <= 0 {
		bo.Min = 50 * time.Millisecond
	}
	if bo.Max <= 0 {
		bo.Max = 2 * time.Second
	}
	return &Follower{
		srv:      srv,
		source:   cfg.Source,
		client:   &http.Client{}, // no overall timeout: the stream is long-lived
		backoff:  bo,
		progress: make(chan struct{}),
	}
}

// Serve returns the underlying serving engine.
func (f *Follower) Serve() *serve.Engine { return f.srv }

// SetSource re-points the follower at a different primary — the
// failover move after a promotion elsewhere in the fleet. The next
// (re)connection uses the new URL; the epoch check then forces the
// snapshot resync the new primary requires.
func (f *Follower) SetSource(url string) {
	f.mu.Lock()
	f.source = url
	f.mu.Unlock()
}

// Stats snapshots the follower's replication state.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	lag := uint64(0)
	if f.head > f.gen {
		lag = f.head - f.gen
	}
	return FollowerStats{
		Synced:     f.synced,
		Epoch:      f.epoch,
		Generation: f.gen,
		Head:       f.head,
		Lag:        lag,
		Reconnects: f.reconnects.Load(),
		Resyncs:    f.resyncs.Load(),
		Primary:    f.primary,
	}
}

// WaitSynced blocks until the follower has committed generation >= gen
// (within its current epoch) or ctx ends.
func (f *Follower) WaitSynced(ctx context.Context, gen uint64) error {
	for {
		f.mu.Lock()
		done := f.synced && f.gen >= gen
		ch := f.progress
		f.mu.Unlock()
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Run tails the primary until ctx ends, reconnecting with jittered
// exponential backoff. Stream progress (any committed batch) resets the
// backoff; a connection that dies before committing anything does not.
func (f *Follower) Run(ctx context.Context) error {
	attempt := 0
	for {
		progressed, err := f.stream(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		f.reconnects.Add(1)
		if progressed {
			attempt = 0
		}
		attempt++
		delay := f.backoff.Delay(attempt)
		_ = err // every disconnect reason takes the same backoff path
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
}

// stream opens one /v1/replicate connection and applies it until it
// breaks. It reports whether any batch was committed.
func (f *Follower) stream(ctx context.Context) (progressed bool, err error) {
	f.mu.Lock()
	url := f.source + "/v1/replicate"
	if f.synced {
		url = fmt.Sprintf("%s?from=%d&epoch=%s", url, f.gen, f.epoch)
	}
	f.mu.Unlock()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("replica: %s: %s", url, resp.Status)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)

	// Batch state: nil delta = between batches. A snapshot batch
	// rebuilds from empty and publishes via RebuildGraph; a delta batch
	// applies over the served graph via Apply.
	var (
		d        *kg.Delta
		snapshot bool
		gotHello bool
	)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		frame, triple, isFrame, err := api.DecodeRepLine(line)
		if err != nil {
			return progressed, err
		}
		if !isFrame {
			if d == nil {
				return progressed, fmt.Errorf("replica: data line outside a batch")
			}
			if err := d.ApplyStatement(kg.Statement{S: triple.S, P: triple.P, O: triple.O}); err != nil {
				return progressed, err
			}
			continue
		}
		switch frame.Frame {
		case api.RepHello:
			if gotHello {
				return progressed, fmt.Errorf("replica: duplicate hello")
			}
			gotHello = true
			f.mu.Lock()
			if f.epoch != frame.Epoch {
				// New primary incarnation: local generations are no
				// longer comparable. The stream decides what follows
				// (it will be a snapshot, since our ?epoch= missed).
				f.epoch = frame.Epoch
				f.synced = false
			}
			f.head = frame.Generation
			f.primary = frame.Advertise
			f.mu.Unlock()
		case api.RepSnapshot:
			d = kg.NewDelta(kg.Empty())
			snapshot = true
		case api.RepDelta:
			d = f.srv.NewDelta()
			snapshot = false
		case api.RepNode:
			if d == nil {
				return progressed, fmt.Errorf("replica: node frame outside a batch")
			}
			if err := d.ApplyStatement(kg.Statement{S: frame.Name}); err != nil {
				return progressed, err
			}
		case api.RepCommit:
			if d == nil {
				return progressed, fmt.Errorf("replica: commit without a batch")
			}
			if snapshot {
				if err := f.srv.RebuildGraph(d.Commit()); err != nil {
					return progressed, err
				}
				f.resyncs.Add(1)
			} else {
				if _, err := f.srv.Apply(d); err != nil {
					return progressed, err
				}
			}
			d = nil
			f.mu.Lock()
			f.gen = frame.Generation
			f.synced = true
			if frame.Generation > f.head {
				f.head = frame.Generation
			}
			close(f.progress)
			f.progress = make(chan struct{})
			f.mu.Unlock()
			progressed = true
		case api.RepPing:
			f.mu.Lock()
			f.head = frame.Generation
			f.mu.Unlock()
		}
	}
	if err := sc.Err(); err != nil {
		return progressed, err
	}
	return progressed, fmt.Errorf("replica: stream ended")
}

// Promote turns the follower's state into a new Primary over the same
// serve engine, under a fresh epoch. The caller is responsible for
// having stopped Run (cancel its context) — a promoted node must not
// keep tailing the dead primary.
func (f *Follower) Promote(cfg Config) *Primary {
	return NewPrimary(f.srv, cfg)
}
