package keyword

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semkg/internal/core"
	"semkg/internal/merge"
	"semkg/internal/query"
	"semkg/internal/serve"
)

// Frontend serves keyword queries over one serving engine. Every
// candidate executes through serve.Engine.Search, so the serving layer's
// result cache, plan cache, singleflight and admission control all apply
// per candidate; on top of that the front end keeps its own
// generation-gated cache of blended responses, because assembly inputs
// (the name indexes) change exactly when the engine generation does.
// Safe for concurrent use.
type Frontend struct {
	srv *serve.Engine
	cfg Config

	mu    sync.Mutex
	cache map[string]*cacheEntry

	assemblies    atomic.Uint64
	cacheHits     atomic.Uint64
	cacheMisses   atomic.Uint64
	candidateRuns atomic.Uint64
	suggests      atomic.Uint64
}

// cacheEntry stamps a blended response with the engine generation its
// assembly and execution ran on; a stamp older than the served generation
// means the match set may have changed, so the entry never answers.
type cacheEntry struct {
	gen  uint64
	resp *Response
}

// New builds a keyword front end over srv.
func New(srv *serve.Engine, cfg Config) *Frontend {
	return &Frontend{srv: srv, cfg: cfg.withDefaults(), cache: make(map[string]*cacheEntry)}
}

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
	// Assemblies counts assembly runs (cache hits skip assembly).
	Assemblies uint64 `json:"assemblies"`
	// CacheHits / CacheMisses count the blended-response cache.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
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
		CacheHits:     f.cacheHits.Load(),
		CacheMisses:   f.cacheMisses.Load(),
		CandidateRuns: f.candidateRuns.Load(),
		Suggests:      f.suggests.Load(),
	}
}

// Search assembles candidates for input, executes the top maxCandidates
// (0 = the configured default) concurrently through the serving layer,
// and blends the per-candidate top-k lists into one deduplicated ranking.
// An input that assembles no executable candidate returns an empty
// response, not an error; execution errors surface only when every
// candidate fails.
func (f *Frontend) Search(ctx context.Context, input string, opts core.Options, maxCandidates int) (*Response, error) {
	b, err := f.prepare(input, opts, maxCandidates)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	eng, gen := f.srv.Current()
	cacheable := f.cfg.CacheSize > 0 && opts.Clock == nil && opts.Rng == nil && opts.Strategy != query.RandomPivot
	key := f.cacheKey(input, opts, b)
	if cacheable {
		if resp := f.cacheGet(key, gen); resp != nil {
			f.cacheHits.Add(1)
			return resp, nil
		}
		f.cacheMisses.Add(1)
	}

	asm := Assemble(eng.Graph(), input)
	f.assemblies.Add(1)
	execs := asm.Candidates
	if len(execs) > b {
		execs = execs[:b]
	}
	runs := make([]CandidateRun, len(execs))
	results := make([]*core.Result, len(execs))
	errs := make([]error, len(execs))
	var wg sync.WaitGroup
	for i := range execs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			res, err := f.srv.Search(ctx, execs[i].Query, opts)
			runs[i] = CandidateRun{Index: i, Elapsed: time.Since(t0)}
			if err != nil {
				errs[i] = err
				runs[i].Err = err.Error()
				return
			}
			results[i] = res
			runs[i].Answers = len(res.Answers)
			runs[i].Approximate = res.Approximate
		}(i)
		f.candidateRuns.Add(1)
	}
	wg.Wait()

	failed := 0
	for _, e := range errs {
		if e != nil {
			failed++
		}
	}
	if len(execs) > 0 && failed == len(execs) {
		return nil, worstError(errs)
	}

	resp := &Response{
		Assembly:   asm,
		Executed:   len(execs),
		Runs:       runs,
		Answers:    blend(execs, results, opts.Normalized().K),
		Generation: gen,
		Elapsed:    time.Since(start),
	}
	if cacheable && failed == 0 && ctx.Err() == nil && f.srv.Generation() == gen {
		f.cachePut(key, gen, resp)
	}
	return resp, nil
}

// prepare validates the request and resolves the candidate budget.
func (f *Frontend) prepare(input string, opts core.Options, maxCandidates int) (int, error) {
	if err := opts.Validate(); err != nil {
		return 0, core.BadRequestError{Err: err}
	}
	if strings.TrimSpace(input) == "" {
		return 0, core.BadRequestError{Err: fmt.Errorf("keyword: empty keywords")}
	}
	if maxCandidates < 0 {
		return 0, core.BadRequestError{Err: fmt.Errorf("keyword: max_candidates = %d out of range (must be non-negative; 0 uses the default %d)", maxCandidates, defaultCandidates)}
	}
	b := maxCandidates
	if b == 0 {
		b = defaultCandidates
	}
	if b > 16 {
		b = 16
	}
	return b, nil
}

// blend folds per-candidate result lists into the deduplicated blended
// top-k via merge.Blend. Within a candidate the blended order equals the
// engine's rank order (one common factor), so the lists are pre-ranked as
// Blend requires.
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
	return merge.Blend(lists, k, func(a RankedAnswer) string { return a.Entity }, func(a, b RankedAnswer) bool {
		if a.Blended != b.Blended {
			return a.Blended > b.Blended
		}
		return a.Entity < b.Entity
	})
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

// cacheKey canonicalizes (input, normalized options, candidate budget).
// Word boundaries are preserved (unlike strutil.Normalize) because they
// affect tokenization.
func (f *Frontend) cacheKey(input string, opts core.Options, b int) string {
	o := opts.Normalized()
	o.Rng = nil
	o.Clock = nil
	words := strings.Fields(strings.ToLower(strings.TrimSpace(input)))
	return fmt.Sprintf("%d|%s|%+v", b, strings.Join(words, " "), o)
}

func (f *Frontend) cacheGet(key string, gen uint64) *Response {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, ok := f.cache[key]; ok && e.gen == gen {
		return e.resp
	}
	return nil
}

// cachePut stores resp; at capacity the map resets wholesale (entries are
// small, and every Rebuild implicitly flushes by generation anyway).
func (f *Frontend) cachePut(key string, gen uint64, resp *Response) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.cache) >= f.cfg.CacheSize {
		f.cache = make(map[string]*cacheEntry)
	}
	f.cache[key] = &cacheEntry{gen: gen, resp: resp}
}
