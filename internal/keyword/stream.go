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
// after the final event. Streamed responses are not cached.
func (f *Frontend) Stream(ctx context.Context, input string, opts core.Options, maxCandidates int) (<-chan Event, error) {
	b, err := f.prepare(input, opts, maxCandidates)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	eng, gen := f.srv.Current()
	asm := Assemble(eng.Graph(), input)
	f.assemblies.Add(1)
	execs := asm.Candidates
	if len(execs) > b {
		execs = execs[:b]
	}

	type opened struct {
		idx int
		st  *serve.Stream
	}
	var streams []opened
	errs := make([]error, len(execs))
	runs := make([]CandidateRun, len(execs))
	for i := range execs {
		runs[i] = CandidateRun{Index: i}
		st, err := f.srv.Stream(ctx, execs[i].Query, opts)
		f.candidateRuns.Add(1)
		if err != nil {
			errs[i] = err
			runs[i].Err = err.Error()
			continue
		}
		streams = append(streams, opened{idx: i, st: st})
	}
	if len(execs) > 0 && len(streams) == 0 {
		return nil, worstError(errs)
	}

	out := make(chan Event, 64)
	go func() {
		defer close(out)
		out <- Event{Candidate: -1, Assembly: asm, Executed: len(execs)}
		results := make([]*core.Result, len(execs))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, op := range streams {
			wg.Add(1)
			go func(op opened) {
				defer wg.Done()
				t0 := time.Now()
				for ev := range op.st.Events() {
					out <- Event{Candidate: op.idx, Inner: ev}
				}
				res, err := op.st.Result()
				mu.Lock()
				runs[op.idx].Elapsed = time.Since(t0)
				if err != nil {
					errs[op.idx] = err
					runs[op.idx].Err = err.Error()
				} else {
					results[op.idx] = res
					runs[op.idx].Answers = len(res.Answers)
					runs[op.idx].Approximate = res.Approximate
				}
				mu.Unlock()
			}(op)
		}
		wg.Wait()
		out <- Event{Candidate: -1, Final: &Response{
			Assembly:   asm,
			Executed:   len(execs),
			Runs:       runs,
			Answers:    blend(execs, results, opts.Normalized().K),
			Generation: gen,
			Elapsed:    time.Since(start),
		}}
	}()
	return out, nil
}
