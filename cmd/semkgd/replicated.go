package main

import (
	"context"
	"expvar"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"semkg/internal/kg"
	"semkg/internal/replica"
	"semkg/internal/serve"
)

// replState holds a node's replication role. A semkgd started without
// -follow is a primary: its /v1/replicate endpoint streams commits, and
// ingestion routes through the primary's commit log. A -follow node is
// a read-only follower until POST /v1/promote flips it — the warm
// failover move when the primary dies.
type replState struct {
	srv       *serve.Engine
	advertise string
	maxLog    int

	mu         sync.Mutex
	primary    *replica.Primary
	follower   *replica.Follower
	stopFollow context.CancelFunc
}

// newPrimaryState wraps srv as a replication primary.
func newPrimaryState(srv *serve.Engine, advertise string, maxLog int) *replState {
	rs := &replState{srv: srv, advertise: advertise, maxLog: maxLog}
	rs.primary = replica.NewPrimary(srv, replica.Config{
		Advertise: advertise, MaxLogStatements: maxLog,
	})
	return rs
}

// newFollowerState wraps srv as a follower of the primary at source and
// starts the tail loop.
func newFollowerState(srv *serve.Engine, source, advertise string, maxLog int) *replState {
	rs := &replState{srv: srv, advertise: advertise, maxLog: maxLog}
	rs.follower = replica.NewFollower(srv, replica.FollowerConfig{Source: source})
	ctx, cancel := context.WithCancel(context.Background())
	rs.stopFollow = cancel
	go rs.follower.Run(ctx)
	return rs
}

// currentPrimary returns the node's primary, nil while it follows.
func (rs *replState) currentPrimary() *replica.Primary {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.primary
}

func (rs *replState) currentFollower() *replica.Follower {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.follower
}

// promote flips a follower to primary under a fresh epoch. It stops the
// tail loop first: a promoted node must not keep applying the dead
// primary's stream under its own feet. Reports false if already primary.
func (rs *replState) promote() (*replica.Primary, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.follower == nil {
		return rs.primary, false
	}
	rs.stopFollow()
	rs.primary = rs.follower.Promote(replica.Config{
		Advertise: rs.advertise, MaxLogStatements: rs.maxLog,
	})
	rs.follower = nil
	rs.stopFollow = nil
	return rs.primary, true
}

// close stops the tail loop or wakes the primary's streams, for
// shutdown.
func (rs *replState) close() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.stopFollow != nil {
		rs.stopFollow()
	}
	if rs.primary != nil {
		rs.primary.Close()
	}
}

// healthz returns the replication block for /healthz: role, epoch, and
// for followers the head/lag view that tells an operator how far behind
// this node is serving.
func (rs *replState) healthz() map[string]any {
	rs.mu.Lock()
	f, p := rs.follower, rs.primary
	rs.mu.Unlock()
	if f != nil {
		st := f.Stats()
		return map[string]any{
			"role":       "follower",
			"synced":     st.Synced,
			"epoch":      st.Epoch,
			"generation": st.Generation,
			"head":       st.Head,
			"lag":        st.Lag,
			"reconnects": st.Reconnects,
			"resyncs":    st.Resyncs,
			"primary":    st.Primary,
		}
	}
	return map[string]any{
		"role":  "primary",
		"epoch": p.Epoch(),
		"head":  p.Head(),
		"floor": p.Floor(),
	}
}

// currentRepl backs the "semkgd_replica" expvar; registration is
// guarded because tests build many muxes.
var (
	currentRepl        atomic.Pointer[replState]
	publishReplicaOnce sync.Once
)

func publishReplicaStats() {
	publishReplicaOnce.Do(func() {
		expvar.Publish("semkgd_replica", expvar.Func(func() any {
			if rs := currentRepl.Load(); rs != nil {
				return rs.healthz()
			}
			return nil
		}))
	})
}

// handleReplicate streams the replication feed (primaries only;
// followers answer 503 so a misconfigured follower-of-follower chain
// fails loudly instead of silently serving stale generations).
func (s *server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	p := s.repl.currentPrimary()
	if p == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"error": "not a primary; followers do not re-stream"})
		return
	}
	p.ServeHTTP(w, r)
}

// handlePromote flips a follower to primary. Idempotence: promoting a
// primary is a 409, so an orchestrator retrying the call can tell "I
// won" from "someone else already did".
func (s *server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	p, promoted := s.repl.promote()
	if !promoted {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": "already primary", "epoch": p.Epoch()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"role": "primary", "epoch": p.Epoch(), "generation": p.Head()})
}

// runCompactor periodically writes the served graph as an atomic binary
// snapshot, so a restart after hours of live ingestion cold-starts from
// a recent generation instead of replaying everything. Writes are
// skipped while the generation is unchanged.
func runCompactor(ctx context.Context, srv *serve.Engine, path string, every time.Duration, logf func(string, ...any)) {
	var lastGen uint64
	wrote := false
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		eng, gen := srv.Current()
		if wrote && gen == lastGen {
			continue
		}
		if err := kg.WriteSnapshotFile(path, eng.Graph()); err != nil {
			logf("semkgd: snapshot compactor: %v", err)
			continue
		}
		lastGen, wrote = gen, true
		logf("semkgd: snapshot compactor: wrote %s at generation %d", path, gen)
	}
}
