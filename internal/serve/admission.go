package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// OverloadedError is returned when admission control sheds a request: the
// worker pool is saturated and either the queue is full or the request's
// TimeBound cannot cover its projected queue wait. An HTTP front end maps
// it to 429 with a Retry-After header.
type OverloadedError struct {
	// RetryAfter is the projected wait until a worker frees up — the
	// earliest moment a retry could be admitted.
	RetryAfter time.Duration
	// Reason distinguishes the two shed conditions: "queue full" or
	// "deadline".
	Reason string
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("serve: overloaded (%s), retry after %v", e.Reason, e.RetryAfter)
}

// admission is a bounded worker pool with deadline-aware shedding
// (the time-bounded mode's contract extended to a loaded server: a bound
// must survive queueing, so a request that would spend its whole
// TimeBound waiting is rejected up front instead of timing out in the
// queue).
type admission struct {
	slots    chan struct{} // buffered; len = busy workers
	workers  int
	maxQueue int

	waiters atomic.Int64 // requests currently queued
	// estRunNs is an EWMA of observed pipeline service times, seeding the
	// projected queue wait. Initialized from Config.EstimatedRun (1ms when
	// unset) before any request has completed.
	estRunNs atomic.Int64

	admitted         atomic.Uint64
	queued           atomic.Uint64
	rejectedQueue    atomic.Uint64
	rejectedDeadline atomic.Uint64
}

func newAdmission(workers, maxQueue int, seed time.Duration) *admission {
	if seed <= 0 {
		seed = time.Millisecond
	}
	a := &admission{
		slots:    make(chan struct{}, workers),
		workers:  workers,
		maxQueue: maxQueue,
	}
	a.estRunNs.Store(int64(seed))
	return a
}

// projectedWait estimates how long the n-th queued request waits for a
// worker: n service times spread across the pool.
func (a *admission) projectedWait(n int64) time.Duration {
	return time.Duration(n * a.estRunNs.Load() / int64(a.workers))
}

// acquire blocks until a worker slot is free, sheds the request, or ctx is
// done. bound is the request's TimeBound (0 = no deadline): a queued
// request whose projected wait reaches the bound is rejected immediately —
// admitting it could not possibly meet the bound (429 beats a blown SLA).
func (a *admission) acquire(ctx context.Context, bound time.Duration) error {
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return nil
	default:
	}
	n := a.waiters.Add(1)
	defer a.waiters.Add(-1)
	wait := a.projectedWait(n)
	if a.maxQueue >= 0 && n > int64(a.maxQueue) {
		a.rejectedQueue.Add(1)
		return &OverloadedError{RetryAfter: wait, Reason: "queue full"}
	}
	if bound > 0 && wait >= bound {
		a.rejectedDeadline.Add(1)
		return &OverloadedError{RetryAfter: wait, Reason: "deadline"}
	}
	a.queued.Add(1)
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release frees the worker slot and folds the observed service time into
// the EWMA (weight 1/8) that drives projected queue waits. The CAS loop
// keeps concurrent releases from overwriting each other's observations.
func (a *admission) release(served time.Duration) {
	<-a.slots
	if served <= 0 {
		return
	}
	for {
		old := a.estRunNs.Load()
		if a.estRunNs.CompareAndSwap(old, old-old/8+int64(served)/8) {
			return
		}
	}
}

// busy returns the number of occupied worker slots.
func (a *admission) busy() int { return len(a.slots) }
