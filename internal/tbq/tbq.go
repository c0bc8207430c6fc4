// Package tbq holds the time base of the response-time-bounded mode
// (Section VI) — Clock, StepClock and the default r% — and the paper's own
// Algorithms 2 and 3, kept as a reproduction for the Fig. 15 experiment:
// every sub-query search runs in the eager mode (matches collected the
// moment they are discovered, Algorithm 2), a synchronized time estimator
// projects the total query time
//
//	T̂ = max{T_A*} + Σ|M̂_i|·t            (Algorithm 3)
//
// and the searches stop as soon as T̂ reaches the alert threshold T·r%, so
// that the TA assembly of the collected non-optimal match sets M̂_i finishes
// within the user-specified bound T. Given enough time the eager sets cover
// the optimal sets (Lemmas 6-7), so the result converges to the exact top-k
// (Theorem 4). The served engines do not run these algorithms: their
// time-bounded mode is the exact pipeline cut at T·r% (internal/core).
package tbq

import (
	"cmp"
	"context"
	"slices"
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

// WallClock is the real Clock.
type WallClock struct{}

// Now returns the wall time.
func (WallClock) Now() time.Time { return time.Now() }

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
	// match during TA assembly, measured by the caller on its workload.
	// Zero projects no assembly cost.
	PerMatchTA time.Duration
	// Clock abstracts time; nil uses the wall clock.
	Clock Clock
}

// DefaultAlertRatio is r% when a run sets none, for the served cut and for
// Algorithm 3 alike: the paper's 80%. Cache keys canonicalize an unset
// ratio to it (internal/serve).
const DefaultAlertRatio = 0.8

func (c Config) withDefaults() Config {
	if c.AlertRatio <= 0 || c.AlertRatio > 1 {
		c.AlertRatio = DefaultAlertRatio
	}
	if c.Clock == nil {
		c.Clock = WallClock{}
	}
	return c
}

// Estimator is Algorithm 3's synchronized time estimate for a set of
// concurrent eager searches: T̂ = elapsed search time (the searches run
// concurrently, so max{T_A*} is the shared wall elapsed) plus the
// projected assembly cost Σ|M̂_i|·t over every match counted so far. It
// is shared by every concurrent search of a run. Safe for concurrent use.
type Estimator struct {
	cfg     Config
	ctx     context.Context
	start   time.Time
	total   atomic.Int64
	stopped atomic.Bool
}

// NewEstimator starts the clock (Config defaults applied:
// DefaultAlertRatio, wall clock).
func NewEstimator(ctx context.Context, cfg Config) *Estimator {
	cfg = cfg.withDefaults()
	return &Estimator{cfg: cfg, ctx: ctx, start: cfg.Clock.Now()}
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
	that := e.cfg.Clock.Now().Sub(e.start) + time.Duration(e.total.Load())*e.cfg.PerMatchTA
	if e.ctx.Err() != nil || float64(that) >= float64(e.cfg.Bound)*e.cfg.AlertRatio {
		e.stopped.Store(true)
		return true
	}
	return false
}

// Elapsed returns the time consumed since the estimator started, on its
// configured clock.
func (e *Estimator) Elapsed() time.Duration { return e.cfg.Clock.Now().Sub(e.start) }

// Collect is Algorithm 2's eager collection for one searcher. It runs sr
// eagerly until est says stop, keeping the best match per end entity; each
// newly seen entity raises est's projection by one match. The second result
// reports whether the search ran dry.
func Collect(sr *astar.Searcher, est *Estimator) (map[kg.NodeID]astar.Match, bool) {
	best := make(map[kg.NodeID]astar.Match)
	exhausted := sr.RunEager(est.Stop, func(m astar.Match) bool {
		if old, ok := best[m.End()]; !ok || m.PSS > old.PSS {
			if !ok {
				est.Collected()
			}
			best[m.End()] = m
		}
		return true
	})
	return best, exhausted
}

// Result is the outcome of a time-bounded run.
type Result struct {
	Finals []ta.Final
	// Elapsed is the total observed duration of search plus assembly, on
	// the run's clock.
	Elapsed time.Duration
	// Exhausted reports that every search ran dry before the alert
	// threshold: the result is then the exact top-k, not an approximation.
	Exhausted bool
	// Collected is |M̂_i| per sub-query at assembly time.
	Collected []int
}

// Run is Algorithms 2 and 3 end to end: the searchers (one per sub-query
// graph, all over one graph) collect eagerly and concurrently under one
// Estimator until it says stop, then the collected best-per-end sets are
// assembled, Sorted, into the top-k. ctx cancellation stops the search phase early (the assembly
// still runs on whatever was collected).
func Run(ctx context.Context, searchers []*astar.Searcher, k int, cfg Config) Result {
	est := NewEstimator(ctx, cfg)
	sets := make([]map[kg.NodeID]astar.Match, len(searchers))
	exhausted := make([]bool, len(searchers))
	var wg sync.WaitGroup
	for i, s := range searchers {
		wg.Add(1)
		go func(i int, s *astar.Searcher) {
			defer wg.Done()
			sets[i], exhausted[i] = Collect(s, est)
		}(i, s)
	}
	wg.Wait()

	res := Result{Exhausted: true, Collected: make([]int, len(searchers))}
	streams := make([]ta.Stream, len(searchers))
	for i, best := range sets {
		streams[i] = &ta.SliceStream{Matches: Sorted(best)}
		res.Collected[i] = len(best)
		res.Exhausted = res.Exhausted && exhausted[i]
	}
	res.Finals, _ = ta.Assemble(streams, k)
	res.Elapsed = est.Elapsed()
	return res
}

// Sorted lists a collected best-per-end set in the order the assembly
// consumes it: pss descending, End ascending among equal pss.
func Sorted(best map[kg.NodeID]astar.Match) []astar.Match {
	ms := make([]astar.Match, 0, len(best))
	for _, m := range best {
		ms = append(ms, m)
	}
	slices.SortFunc(ms, func(a, b astar.Match) int {
		return cmp.Or(cmp.Compare(b.PSS, a.PSS), cmp.Compare(a.End(), b.End()))
	})
	return ms
}
