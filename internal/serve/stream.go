package serve

import (
	"context"

	"semkg/internal/core"
)

// Stream is a serving-layer event stream. The request that started a
// pipeline run gets it *live*: the run's own events, provisional top-k
// snapshots included, forwarded as they happen. Every other stream is
// *settled* — a result-cache hit, a singleflight follower, or a Stream
// joining a run a Search started: it delivers exactly one ResultEvent,
// carrying the shared *Result, once the run has finished. Consume Events
// until the channel closes, or call Result to block for the terminal
// outcome.
type Stream struct {
	events chan core.Event
	ctx    context.Context
	fl     *flight      // nil for a result-cache hit
	res    *core.Result // the hit's result
}

// Events returns the event channel; it closes after the terminal event
// (or after the subscriber's context is cancelled). A consumer that
// abandons the channel without draining should cancel its context, which
// releases the delivery goroutine (and the stream's flight reference).
func (s *Stream) Events() <-chan core.Event { return s.events }

// Result blocks until the underlying execution terminates and returns the
// terminal outcome. It does not require Events to be drained. The error is
// non-nil only when the execution failed or the subscriber's context was
// cancelled first.
func (s *Stream) Result() (*core.Result, error) {
	if s.fl == nil {
		return s.res, nil
	}
	return s.fl.wait(s.ctx)
}

// hitStream is the settled stream of a result-cache hit.
func hitStream(res *core.Result) *Stream {
	s := &Stream{events: make(chan core.Event, 1), res: res}
	s.events <- core.ResultEvent{Result: res}
	close(s.events)
	return s
}

// flightStream subscribes to fl: live when this request started fl as a
// stream, settled otherwise. Delivery ends with the flight reference
// released.
func flightStream(ctx context.Context, fl *flight, live bool) *Stream {
	s := &Stream{events: make(chan core.Event, 1), ctx: ctx, fl: fl}
	if live {
		go s.forward(fl.live)
	} else {
		go s.settle()
	}
	return s
}

// forward relays the live run's events until they end or the subscriber's
// context is cancelled. After the last event it waits for the flight to
// finish: leaving earlier could cancel the flight before its leader
// publishes the result, which would then go uncached.
func (s *Stream) forward(live *core.Stream) {
	defer close(s.events)
	defer s.fl.leave()
	for ev := range live.Events() {
		select {
		case s.events <- ev:
		case <-s.ctx.Done():
			return
		}
	}
	s.fl.wait(s.ctx)
}

// settle delivers the flight's outcome as one terminal event: the shared
// result, or the pipeline's failure. The buffered channel takes it without
// blocking.
func (s *Stream) settle() {
	defer close(s.events)
	defer s.fl.leave()
	res, err := s.fl.wait(s.ctx)
	switch {
	case err == nil:
		s.events <- core.ResultEvent{Result: res}
	case s.ctx.Err() == nil:
		s.events <- core.ErrorEvent{Err: err}
	}
}
