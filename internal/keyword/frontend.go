package keyword

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semkg/internal/core"
	"semkg/internal/serve"
)

// Frontend serves keyword queries over one serving engine. It keeps no
// state but its counters: every candidate executes through serve.Engine,
// whose result cache, singleflight and admission control answer repeated
// candidates, and each request assembles afresh over the generation it
// reads. Safe for concurrent use.
type Frontend struct {
	srv *serve.Engine

	assemblies    atomic.Uint64
	candidateRuns atomic.Uint64
	suggests      atomic.Uint64
}

// New builds a keyword front end over srv.
func New(srv *serve.Engine) *Frontend { return &Frontend{srv: srv} }

// RankedAnswer is one blended answer: an engine answer plus the candidate
// that produced it and the blended score it ranks by.
type RankedAnswer struct {
	// Entity is the answer entity (the pivot binding); blending dedups on
	// it.
	Entity string
	// Blended is candidate score × per-part-normalized answer score.
	Blended float64
	// Candidate indexes Assembly.Candidates.
	Candidate int
	// Answer is the engine answer, unchanged.
	Answer core.Answer
}

// CandidateRun reports one candidate's execution.
type CandidateRun struct {
	// Index indexes Assembly.Candidates.
	Index int
	// Answers is how many answers the candidate contributed.
	Answers int
	// Elapsed is the candidate's end-to-end serving time.
	Elapsed time.Duration
	// Approximate mirrors core.Result.Approximate (TBQ mode).
	Approximate bool
	// Err is the candidate's failure, "" on success.
	Err string
}

// Response is a blended keyword-search response.
type Response struct {
	// Assembly is the full assembly outcome (tokens, unmatched keywords,
	// every scored candidate — executed or not).
	Assembly *Assembly
	// Executed is how many candidates ran (the top Executed of
	// Assembly.Candidates).
	Executed int
	// Runs reports each executed candidate.
	Runs []CandidateRun
	// Answers is the blended, per-entity-deduplicated top-k.
	Answers []RankedAnswer
	// Elapsed covers assembly plus execution and blending.
	Elapsed time.Duration
	// Generation is the engine generation served.
	Generation uint64
}

// Stats is a snapshot of front-end counters (expvar surface).
type Stats struct {
	// Assemblies counts assembly runs, one per validated request.
	Assemblies uint64 `json:"assemblies"`
	// CandidateRuns counts per-candidate executions handed to the serving
	// layer (which may itself answer them from its result cache).
	CandidateRuns uint64 `json:"candidate_runs"`
	// Suggests counts autocomplete calls.
	Suggests uint64 `json:"suggests"`
}

// Stats returns a point-in-time snapshot of the counters.
func (f *Frontend) Stats() Stats {
	return Stats{
		Assemblies:    f.assemblies.Load(),
		CandidateRuns: f.candidateRuns.Load(),
		Suggests:      f.suggests.Load(),
	}
}

// Search assembles candidates for input, executes the top maxCandidates
// (0 = the default) concurrently through the serving layer, and blends
// the per-candidate top-k lists into one deduplicated ranking. An input
// that assembles no executable candidate returns an empty response, not
// an error; execution errors surface only when every candidate fails.
func (f *Frontend) Search(ctx context.Context, input string, opts core.Options, maxCandidates int) (*Response, error) {
	c, err := f.begin(input, opts, maxCandidates)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for i, cand := range c.execs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			res, err := f.srv.Search(ctx, cand.Query, opts)
			c.record(i, res, err, time.Since(t0))
		}()
	}
	wg.Wait()
	if err := c.failure(); err != nil {
		return nil, err
	}
	return c.respond(), nil
}

// call is one keyword request past assembly: the generation it read, the
// candidates it executes and each candidate's outcome. Search and Stream
// both begin one, record every candidate into it and respond from it.
type call struct {
	start   time.Time
	gen     uint64
	k       int
	asm     *Assembly
	execs   []Candidate
	runs    []CandidateRun
	results []*core.Result
	errs    []error
}

// begin validates the request, assembles input over the served graph and
// keeps the top maxCandidates (0 = the default) candidates to execute.
func (f *Frontend) begin(input string, opts core.Options, maxCandidates int) (*call, error) {
	if err := opts.Validate(); err != nil {
		return nil, core.BadRequestError{Err: err}
	}
	if strings.TrimSpace(input) == "" {
		return nil, core.BadRequestError{Err: fmt.Errorf("keyword: empty keywords")}
	}
	if maxCandidates < 0 {
		return nil, core.BadRequestError{Err: fmt.Errorf("keyword: max_candidates = %d out of range (must be non-negative; 0 uses the default %d)", maxCandidates, defaultCandidates)}
	}
	b := maxCandidates
	if b == 0 {
		b = defaultCandidates
	}
	start := time.Now()
	eng, gen := f.srv.Current()
	asm := Assemble(eng.Graph(), input)
	f.assemblies.Add(1)
	execs := asm.Candidates[:min(len(asm.Candidates), b, maxExecuted)]
	f.candidateRuns.Add(uint64(len(execs)))
	c := &call{
		start: start, gen: gen, k: opts.Normalized().K, asm: asm, execs: execs,
		runs:    make([]CandidateRun, len(execs)),
		results: make([]*core.Result, len(execs)),
		errs:    make([]error, len(execs)),
	}
	for i := range c.runs {
		c.runs[i].Index = i
	}
	return c, nil
}

// record stores candidate i's outcome. Each candidate writes only its own
// slots, so concurrent records need no lock.
func (c *call) record(i int, res *core.Result, err error, elapsed time.Duration) {
	c.runs[i].Elapsed = elapsed
	if err != nil {
		c.errs[i] = err
		c.runs[i].Err = err.Error()
		return
	}
	c.results[i] = res
	c.runs[i].Answers = len(res.Answers)
	c.runs[i].Approximate = res.Approximate
}

// failure is the request's error when every candidate failed, else nil.
func (c *call) failure() error {
	if len(c.errs) == 0 || slices.Contains(c.errs, nil) {
		return nil
	}
	return worstError(c.errs)
}

// respond blends the recorded results into the request's response.
func (c *call) respond() *Response {
	return &Response{
		Assembly:   c.asm,
		Executed:   len(c.execs),
		Runs:       c.runs,
		Answers:    blend(c.execs, c.results, c.k),
		Generation: c.gen,
		Elapsed:    time.Since(c.start),
	}
}

// blend folds per-candidate result lists into the deduplicated blended
// top-k via blendRanked. Within a candidate the blended order equals the
// engine's rank order (one common factor), so the lists are pre-ranked as
// blendRanked requires.
func blend(execs []Candidate, results []*core.Result, k int) []RankedAnswer {
	lists := make([][]RankedAnswer, 0, len(results))
	for i, res := range results {
		if res == nil {
			continue
		}
		l := make([]RankedAnswer, 0, len(res.Answers))
		for _, a := range res.Answers {
			l = append(l, RankedAnswer{
				Entity:    a.PivotName,
				Blended:   execs[i].Score * normalizedScore(a),
				Candidate: i,
				Answer:    a,
			})
		}
		lists = append(lists, l)
	}
	return blendRanked(lists, k, func(a RankedAnswer) string { return a.Entity }, func(a, b RankedAnswer) bool {
		if a.Blended != b.Blended {
			return a.Blended > b.Blended
		}
		return a.Entity < b.Entity
	})
}

// blendRanked merges several independently ranked lists into one
// deduplicated top-k ranking: the per-candidate answer lists enter here.
// Items are
// compared by before — a STRICT total order over (item, list index, rank
// within list); ties inside one list fall back to (list, rank), so the
// output never depends on map iteration or goroutine timing. key
// identifies the deduplication class (the answer entity): of several
// items with the same key, only the best survives.
//
// k <= 0 means "no truncation". Input lists must each already be ranked
// best-first under the same order; blendRanked does not re-sort within a list's
// contribution beyond the global order.
func blendRanked[T any](lists [][]T, k int, key func(T) string, before func(a T, b T) bool) []T {
	type tagged struct {
		item T
		list int
		rank int
	}
	var all []tagged
	for li, l := range lists {
		for ri, it := range l {
			all = append(all, tagged{item: it, list: li, rank: ri})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if before(a.item, b.item) {
			return true
		}
		if before(b.item, a.item) {
			return false
		}
		if a.list != b.list {
			return a.list < b.list
		}
		return a.rank < b.rank
	})
	seen := make(map[string]bool, len(all))
	out := make([]T, 0, len(all))
	for _, t := range all {
		id := key(t.item)
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, t.item)
		if k > 0 && len(out) == k {
			break
		}
	}
	return out
}

// worstError selects the error to surface when every candidate failed:
// an overload (with the largest RetryAfter, so the client backs off
// enough for the whole batch), else the first failure.
func worstError(errs []error) error {
	var over *serve.OverloadedError
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if o, ok := err.(*serve.OverloadedError); ok && (over == nil || o.RetryAfter > over.RetryAfter) {
			over = o
		}
	}
	if over != nil {
		return over
	}
	return first
}
