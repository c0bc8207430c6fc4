// Package tbq implements the response-time-bounded approximate optimization
// of Section VI (Algorithms 2 and 3): every sub-query search runs in the
// eager mode (matches collected the moment they are discovered, Algorithm 2),
// a synchronized time estimator projects the total query time
//
//	T̂ = max{T_A*} + Σ|M̂_i|·t            (Algorithm 3)
//
// and the searches stop as soon as T̂ reaches the alert threshold T·r%, so
// that the TA assembly of the collected non-optimal match sets M̂_i finishes
// within the user-specified bound T. Given enough time the eager sets cover
// the optimal sets (Lemmas 6-7), so the result converges to the exact top-k
// (Theorem 4).
package tbq

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"semkg/internal/astar"
	"semkg/internal/kg"
	"semkg/internal/ta"
)

// Clock abstracts wall time so tests can run deterministically.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// StepClock is a deterministic Clock advancing by Step on every Now call.
// With it, a time bound T admits exactly T/Step clock observations, which
// makes the time-bounded search reproducible in tests.
type StepClock struct {
	mu   sync.Mutex
	t    time.Time
	Step time.Duration
}

// Now returns the current logical time and advances it by Step.
func (c *StepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.Step)
	return c.t
}

// Config controls a time-bounded run.
type Config struct {
	// Bound is the user-specified time bound T (the desired SRT).
	Bound time.Duration
	// AlertRatio is r% of Algorithm 3; search stops when the estimated
	// total time reaches Bound*AlertRatio. Default DefaultAlertRatio.
	AlertRatio float64
	// PerMatchTA is the empirical time t for processing one collected
	// match during TA assembly. Zero uses a calibrated default.
	PerMatchTA time.Duration
	// Clock abstracts time; nil uses the wall clock.
	Clock Clock
}

// DefaultAlertRatio is Algorithm 3's r% when a run sets none: the paper's
// 80%. Cache keys canonicalize an unset ratio to it (internal/serve).
const DefaultAlertRatio = 0.8

func (c Config) withDefaults() Config {
	if c.AlertRatio <= 0 || c.AlertRatio > 1 {
		c.AlertRatio = DefaultAlertRatio
	}
	if c.PerMatchTA <= 0 {
		c.PerMatchTA = defaultPerMatch
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

// defaultPerMatch is a conservative empirical t; Calibrate refines it.
const defaultPerMatch = 500 * time.Nanosecond

// Calibrate measures the per-match TA assembly cost t on a synthetic
// workload (the paper's "simulated TA based assembly").
func Calibrate() time.Duration {
	const matches = 4096
	mk := func() []astar.Match {
		ms := make([]astar.Match, matches)
		for i := range ms {
			ms[i] = astar.Match{Nodes: []kg.NodeID{kg.NodeID(i % 97)}, PSS: 1 - float64(i)/matches}
		}
		return ms
	}
	start := time.Now()
	ta.Assemble([]ta.Stream{
		&ta.SliceStream{Matches: mk()},
		&ta.SliceStream{Matches: mk()},
	}, 16)
	t := time.Since(start) / (2 * matches)
	if t <= 0 {
		t = defaultPerMatch
	}
	return t
}

// Estimator is Algorithm 3's synchronized time estimate for a set of
// concurrent eager searches: T̂ = elapsed search time (the searches run
// concurrently, so max{T_A*} is the shared wall elapsed) plus the
// projected assembly cost Σ|M̂_i|·t over every match counted so far. It
// is shared by every local match source of a run — one per sub-query on
// the whole graph, one per (shard, sub-query) on a partition — so the
// alert policy cannot diverge between the two. Safe for concurrent use.
type Estimator struct {
	cfg     Config
	ctx     context.Context
	onAlert func(elapsed, projected time.Duration)
	start   time.Time
	total   atomic.Int64
	stopped atomic.Bool
}

// NewEstimator starts the clock (Config defaults applied:
// DefaultAlertRatio, calibrated t, wall clock). onAlert, when non-nil, fires exactly once —
// when the estimate first reaches the alert threshold Bound·r%, not on
// cancellation.
func NewEstimator(ctx context.Context, cfg Config, onAlert func(elapsed, projected time.Duration)) *Estimator {
	cfg = cfg.withDefaults()
	return &Estimator{cfg: cfg, ctx: ctx, onAlert: onAlert, start: cfg.Clock.Now()}
}

// Collected records one newly collected distinct match (it raises T̂ by
// the per-match assembly cost t).
func (e *Estimator) Collected() { e.total.Add(1) }

// Stop reports whether the search phase must end: the context was
// cancelled, or the estimate reached the alert threshold. Once true it
// stays true.
func (e *Estimator) Stop() bool {
	if e.stopped.Load() {
		return true
	}
	if e.ctx.Err() != nil {
		e.stopped.Store(true)
		return true
	}
	elapsed := e.cfg.Clock.Now().Sub(e.start)
	that := elapsed + time.Duration(e.total.Load())*e.cfg.PerMatchTA
	if float64(that) >= float64(e.cfg.Bound)*e.cfg.AlertRatio {
		if e.stopped.CompareAndSwap(false, true) && e.onAlert != nil {
			e.onAlert(elapsed, that)
		}
		return true
	}
	return false
}

// Elapsed returns the time consumed since the estimator started, on its
// configured clock.
func (e *Estimator) Elapsed() time.Duration { return e.cfg.Clock.Now().Sub(e.start) }

// Collect is Algorithm 2's eager collection for one searcher — the one
// best-per-end loop every time-bounded path shares (the engines' local
// match sources and the shard server). It runs sr eagerly
// until est says stop, keeping the best match per end entity; each newly
// seen entity raises est's projection by one match and fires onNew (when
// non-nil) with the set's new size. remap, when non-nil, rewrites every
// match before it is keyed — a shard-local searcher's matches must reach
// base-graph ids first, since the sets of different shards merge by End.
// The second result reports whether the search ran dry.
func Collect(sr *astar.Searcher, est *Estimator, remap func(astar.Match) astar.Match,
	onNew func(total int)) (map[kg.NodeID]astar.Match, bool) {
	best := make(map[kg.NodeID]astar.Match)
	exhausted := sr.RunEager(est.Stop, func(m astar.Match) bool {
		if remap != nil {
			m = remap(m)
		}
		if old, ok := best[m.End()]; !ok || m.PSS > old.PSS {
			if !ok {
				est.Collected()
				if onNew != nil {
					onNew(len(best) + 1)
				}
			}
			best[m.End()] = m
		}
		return true
	})
	return best, exhausted
}
