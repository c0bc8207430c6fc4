package keyword

import (
	"context"
	"sync"
	"time"

	"semkg/internal/core"
	"semkg/internal/serve"
)

// Event is one keyword-stream event. Exactly one of the payload fields is
// set: Assembly opens the stream, Inner forwards an engine event from the
// candidate identified by Candidate, and Final closes the stream with the
// blended response.
type Event struct {
	// Candidate attributes an Inner event to Assembly.Candidates[Candidate];
	// -1 marks front-end-level events (Assembly, Final).
	Candidate int
	// Inner is a forwarded engine event (progress, provisional top-k,
	// terminal result) from one candidate's serving stream.
	Inner core.Event
	// Assembly is the assembly outcome (first event). Executed
	// accompanies it: how many of the candidates will run.
	Assembly *Assembly
	// Executed is how many candidates execute (assembly event only).
	Executed int
	// Final is the blended response (last event).
	Final *Response
}

// Stream is the streaming variant of Search: candidates execute
// concurrently through the serving layer's Stream path and their events
// interleave on the returned channel, each tagged with its candidate
// index, between an opening assembly event and a terminal blended
// response. Validation and whole-request failures (every candidate
// rejected synchronously) are returned synchronously; the channel closes
// after the final event. A consumer that stops reading must cancel ctx:
// every send gives up then, so no goroutine outlives the request.
func (f *Frontend) Stream(ctx context.Context, input string, opts core.Options, maxCandidates int) (<-chan Event, error) {
	c, err := f.begin(input, opts, maxCandidates)
	if err != nil {
		return nil, err
	}
	streams := make([]*serve.Stream, len(c.execs))
	for i, cand := range c.execs {
		st, err := f.srv.Stream(ctx, cand.Query, opts)
		if err != nil {
			c.record(i, nil, err, 0)
			continue
		}
		streams[i] = st
	}
	if err := c.failure(); err != nil {
		return nil, err
	}

	// The buffer lets candidates run ahead of a consumer that is writing
	// the previous event to the network.
	out := make(chan Event, 64)
	send := func(ev Event) bool {
		select {
		case out <- ev:
			return true
		case <-ctx.Done():
			return false
		}
	}
	go func() {
		defer close(out)
		if !send(Event{Candidate: -1, Assembly: c.asm, Executed: len(c.execs)}) {
			return
		}
		var wg sync.WaitGroup
		for i, st := range streams {
			if st == nil {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				for ev := range st.Events() {
					if !send(Event{Candidate: i, Inner: ev}) {
						break
					}
				}
				res, err := st.Result()
				c.record(i, res, err, time.Since(t0))
			}()
		}
		wg.Wait()
		send(Event{Candidate: -1, Final: c.respond()})
	}()
	return out, nil
}
