package serve

import (
	"sync/atomic"
	"time"
)

// stats holds the serving layer's internal counters.
type stats struct {
	resultHits   atomic.Uint64
	resultMisses atomic.Uint64
	planHits     atomic.Uint64
	planMisses   atomic.Uint64
	subHits      atomic.Uint64
	subMisses    atomic.Uint64
	flightShared atomic.Uint64
	pipelineRuns atomic.Uint64
	uncacheable  atomic.Uint64
	rebuilds     atomic.Uint64
	applies      atomic.Uint64
}

// Stats is a point-in-time snapshot of the serving layer's counters and
// gauges, exported by semkgd through expvar (GET /debug/vars, key
// "semkgd_serve").
type Stats struct {
	// Result cache.
	ResultHits    uint64 `json:"result_hits"`
	ResultMisses  uint64 `json:"result_misses"`
	ResultEntries int    `json:"result_entries"`
	// Plan cache.
	PlanHits    uint64 `json:"plan_hits"`
	PlanMisses  uint64 `json:"plan_misses"`
	PlanEntries int    `json:"plan_entries"`
	// Sub-search sharing: SubHits counts pipeline runs joining a shared
	// sub-query enumeration that another run created; SubMisses counts
	// enumerations created.
	SubHits    uint64 `json:"sub_hits"`
	SubMisses  uint64 `json:"sub_misses"`
	SubEntries int    `json:"sub_entries"`
	// Singleflight: requests that shared another request's execution.
	FlightShared uint64 `json:"flight_shared"`
	// PipelineRuns counts actual pipeline executions (cache hits and
	// shared flights excluded).
	PipelineRuns uint64 `json:"pipeline_runs"`
	// Uncacheable requests bypassed the caches and dedup (random pivot,
	// test hooks).
	Uncacheable uint64 `json:"uncacheable"`
	// Rebuilds counts engine swaps (each starts a generation with empty
	// caches).
	Rebuilds uint64 `json:"rebuilds"`
	// Applies counts non-empty delta commits published via Apply (a
	// subset of Rebuilds).
	Applies uint64 `json:"applies"`
	// Generation is the current engine generation.
	Generation uint64 `json:"generation"`
	// Admission control.
	Admitted         uint64 `json:"admitted"`
	Queued           uint64 `json:"queued"`
	RejectedQueue    uint64 `json:"rejected_queue_full"`
	RejectedDeadline uint64 `json:"rejected_deadline"`
	BusyWorkers      int    `json:"busy_workers"`
	QueueDepth       int64  `json:"queue_depth"`
	// EstimatedRun is the current EWMA pipeline service-time estimate
	// driving projected queue waits.
	EstimatedRun time.Duration `json:"estimated_run_ns"`
}

// Stats snapshots the serving layer's counters.
func (e *Engine) Stats() Stats {
	g := e.cur.Load()
	return Stats{
		ResultHits:       e.stats.resultHits.Load(),
		ResultMisses:     e.stats.resultMisses.Load(),
		ResultEntries:    g.results.Len(),
		PlanHits:         e.stats.planHits.Load(),
		PlanMisses:       e.stats.planMisses.Load(),
		PlanEntries:      g.plans.Len(),
		SubHits:          e.stats.subHits.Load(),
		SubMisses:        e.stats.subMisses.Load(),
		SubEntries:       g.subs.Len(),
		FlightShared:     e.stats.flightShared.Load(),
		PipelineRuns:     e.stats.pipelineRuns.Load(),
		Uncacheable:      e.stats.uncacheable.Load(),
		Rebuilds:         e.stats.rebuilds.Load(),
		Applies:          e.stats.applies.Load(),
		Generation:       g.n,
		Admitted:         e.adm.admitted.Load(),
		Queued:           e.adm.queued.Load(),
		RejectedQueue:    e.adm.rejectedQueue.Load(),
		RejectedDeadline: e.adm.rejectedDeadline.Load(),
		BusyWorkers:      e.adm.busy(),
		QueueDepth:       e.adm.waiters.Load(),
		EstimatedRun:     time.Duration(e.adm.estRunNs.Load()),
	}
}
