package serve

import (
	"context"
	"sync"

	"semkg/internal/core"
)

// flight is one in-flight pipeline execution shared by every concurrent
// identical request (singleflight). The first request becomes the leader
// and owns the execution goroutine; later identical requests join as
// followers and share its outcome. The flight's context stays alive while
// any participant remains; when the last one leaves, the pipeline is
// cancelled (anytime semantics, as for a single dropped client) and the
// partial result is not cached.
type flight struct {
	ctx context.Context

	// admitted closes when the leader has compiled the plan and acquired a
	// worker slot — the point past which bad-request and overload errors
	// can no longer occur, so Stream waits on it to surface those
	// synchronously (an HTTP handler needs them before the 200 header).
	admitted chan struct{}
	// live is the running pipeline's event stream of a flight a Stream
	// request started, for that request alone; set before admitted closes.
	live *core.Stream
	// done closes when res and err hold the terminal outcome.
	done chan struct{}
	res  *core.Result
	err  error
	// gen is the generation the flight runs on and publishes into.
	gen *generation

	mu     sync.Mutex
	refs   int
	cancel context.CancelFunc
}

func newFlight(gen *generation) *flight {
	ctx, cancel := context.WithCancel(context.Background())
	return &flight{
		ctx:      ctx,
		admitted: make(chan struct{}),
		done:     make(chan struct{}),
		gen:      gen,
		refs:     1,
		cancel:   cancel,
	}
}

// finish records the terminal outcome and signals the waiters.
func (f *flight) finish(res *core.Result, err error) {
	f.res, f.err = res, err
	close(f.done)
}

// wait blocks until the flight finishes or ctx is cancelled. An outcome
// that is ready wins over a cancellation that is ready too: a consumer that
// cancels after completion still gets the result it already paid for.
func (f *flight) wait(ctx context.Context) (*core.Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	default:
	}
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// join registers one more participant. It fails once the last participant
// has left (the flight is cancelled at that point and its result may be
// partial); the caller must then start a fresh flight.
func (f *flight) join() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refs == 0 {
		return false
	}
	f.refs++
	return true
}

// leave deregisters a participant; the last one out cancels the pipeline.
// The cancel happens under the mutex so join can never observe refs == 0
// with the context still live.
func (f *flight) leave() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.refs--
	if f.refs == 0 {
		f.cancel()
	}
}
