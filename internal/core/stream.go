// Streaming search: the anytime, event-driven form of the pipeline. The
// paper's response-time-bounded mode (Section VI, Theorem 4) refines its
// answer monotonically as the budget grows; Stream exposes that refinement
// — and the exact mode's TA assembly rounds — as typed events, so callers
// can render provisional top-k answers while the search is still running.
// The batch Search is a thin consumer of this pipeline.

package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"semkg/internal/astar"
	"semkg/internal/kg"
	"semkg/internal/merge"
	"semkg/internal/query"
	"semkg/internal/ta"
	"semkg/internal/tbq"
)

// EventKind discriminates stream events.
type EventKind int

const (
	// KindProgress is a per-sub-query search progress update.
	KindProgress EventKind = iota
	// KindTopK is a provisional top-k snapshot with TA bounds.
	KindTopK
	// KindPhase marks a pipeline phase transition.
	KindPhase
	// KindResult is the terminal event carrying the final Result.
	KindResult
	// KindError is the terminal event of a pipeline that failed mid-run;
	// only runs over remote shard servers emit it (a shard with no live
	// replica), after which the stream closes without a ResultEvent.
	KindError
)

// Event is one typed stream notification. The concrete types are
// ProgressEvent, TopKEvent, PhaseEvent and ResultEvent.
type Event interface {
	Kind() EventKind
}

// Phase names a pipeline stage for PhaseEvent.
type Phase string

const (
	// PhaseSearch marks the start of the per-sub-query A* searches.
	PhaseSearch Phase = "search"
	// PhaseAlert marks Algorithm 3's estimator reaching the alert
	// threshold T·r% (TBQ only): the searches stop so that the assembly
	// of the collected sets finishes within the bound.
	PhaseAlert Phase = "alert"
	// PhaseAssemble marks the start of the TA final-match assembly.
	PhaseAssemble Phase = "assemble"
)

// ProgressEvent reports one match source's search effort: Collected counts
// the matches the source gathered so far for sub-query Sub (prefetched in
// the exact mode, eager-collected distinct entities in TBQ mode). Done
// marks the end of the source's search phase; every source reports it
// exactly once. Shard identifies the source's shard when the run scatters
// over a partition (1-based, so shard 1 is the first); it is 0 over the
// whole graph, which has one source per sub-query. A remote shard
// collecting eagerly reports only its Done update.
type ProgressEvent struct {
	Sub       int
	Collected int
	Done      bool
	Shard     int
}

// Kind implements Event.
func (ProgressEvent) Kind() EventKind { return KindProgress }

// TopKEvent is a provisional top-k snapshot taken between TA assembly
// rounds. Answers are complete candidates in rank order (at most k);
// LowerK is L_k, the exact score of the k-th candidate (0 until k
// complete candidates exist), and UpperMax is U_max, the best upper bound
// of any candidate outside the current top-k (Eq. 8-11). The assembly
// terminates when L_k >= U_max (Theorem 3), so the gap measures how far
// the provisional ranking may still move. The last TopKEvent of a stream
// always carries the final ranking.
type TopKEvent struct {
	Answers  []Answer
	LowerK   float64
	UpperMax float64
	// Round is the assembly round that produced this snapshot.
	Round int
}

// Kind implements Event.
func (TopKEvent) Kind() EventKind { return KindTopK }

// PhaseEvent marks a pipeline phase transition. For PhaseAlert, Elapsed is
// the search time consumed and Projected is Algorithm 3's estimate T̂ that
// tripped the threshold. For PhaseAssemble, Collected holds |M̂_i| per
// sub-query (TBQ) or the prefetched match counts (exact mode).
type PhaseEvent struct {
	Phase     Phase
	Elapsed   time.Duration
	Projected time.Duration
	Collected []int
}

// Kind implements Event.
func (PhaseEvent) Kind() EventKind { return KindPhase }

// ResultEvent is the terminal event: the same *Result that Stream.Result
// returns. Exactly one ResultEvent is delivered, after which the event
// channel is closed.
type ResultEvent struct {
	Result *Result
}

// Kind implements Event.
func (ResultEvent) Kind() EventKind { return KindResult }

// ErrorEvent is the terminal event of a failed pipeline: the search
// cannot produce a correct result (a shard scatter lost every replica of
// some shard), so the stream ends with the typed error instead of a
// partial — and possibly wrong — top-k. Stream.Err returns the same
// error.
type ErrorEvent struct {
	Err error
}

// Kind implements Event.
func (ErrorEvent) Kind() EventKind { return KindError }

// streamBuffer sizes the event channel. Advisory events (progress, topk,
// phase) are dropped rather than blocking the search when the consumer
// falls this far behind; the terminal ResultEvent is never dropped.
const streamBuffer = 256

// Stream is a running search emitting Events. Consume Events until the
// channel closes, or call Result to block until the terminal result; both
// are safe from any goroutine. Cancel the context passed to Engine.Stream
// to abandon the search early — the stream then terminates with whatever
// was found (anytime semantics, as in batch Search).
type Stream struct {
	events chan Event
	done   chan struct{}
	res    *Result
	err    error
	// quiet disables all event emission: the batch Search path runs the
	// identical pipeline without paying for events nobody consumes.
	quiet bool

	// Provisional-ranking state, touched only by the pipeline goroutine.
	lastTopK []provisionalKey
	lk, umax float64
	round    int
}

// Events returns the event channel. Advisory events are best-effort: when
// the consumer lags behind streamBuffer of them, older advisory events are
// discarded. The terminal ResultEvent is always the last event delivered,
// and the channel is closed after it.
func (s *Stream) Events() <-chan Event { return s.events }

// Result blocks until the search terminates and returns the final result.
// It does not require the Events channel to be drained.
func (s *Stream) Result() *Result {
	<-s.done
	return s.res
}

// Err blocks until the stream terminates and reports the pipeline
// failure, if any. A non-nil error means no Result was produced (the
// stream ended with an ErrorEvent); errors happen only on distributed
// pipelines — in-process engines always terminate with a Result.
func (s *Stream) Err() error {
	<-s.done
	return s.err
}

// outcome blocks until the stream terminates and returns its result or
// failure: the batch entry points' view of a quiet run.
func (s *Stream) outcome() (*Result, error) {
	<-s.done
	return s.res, s.err
}

// fail terminates the stream with err instead of a result.
func (s *Stream) fail(err error) {
	s.err = err
	s.emit(ErrorEvent{Err: err})
	close(s.events)
	close(s.done)
}

// emit delivers ev without ever blocking the pipeline: when the buffer is
// full, the *oldest* buffered event is discarded to make room. Dropping
// from the front keeps the newest events — in particular the closing
// top-k snapshot and the terminal result always survive a backlogged
// consumer, preserving the ordering guarantees (channel FIFO order is
// unaffected by front drops). Safe for concurrent emitters: every select
// is atomic and the loop always makes progress.
func (s *Stream) emit(ev Event) {
	if s.quiet {
		return
	}
	for {
		select {
		case s.events <- ev:
			return
		default:
			select {
			case <-s.events:
			default:
			}
		}
	}
}

// Stream starts the search pipeline and returns immediately with a Stream
// emitting typed events: phase transitions, per-source progress,
// provisional top-k snapshots with TA bounds, and a terminal result.
// Option and query validation errors are returned synchronously (wrapped
// as BadRequestError — the caller's fault, not the engine's); after a nil
// error the stream always terminates with a ResultEvent, or — only over
// remote shard servers, when a shard lost every replica — an ErrorEvent.
// Consuming a Stream to completion yields a Result identical to
// Engine.Search with the same arguments.
func (e *Engine) Stream(ctx context.Context, q *query.Graph, opts Options) (*Stream, error) {
	return e.stream(ctx, q, opts, false)
}

// stream sets up the pipeline: a one-shot Compile followed by the planned
// run. In quiet mode (the batch Search path) no events are emitted and the
// pipeline runs synchronously — same search, none of the event or
// goroutine overhead. Compile already validated and normalized the
// options, so the run skips straight to start.
func (e *Engine) stream(ctx context.Context, q *query.Graph, opts Options, quiet bool) (*Stream, error) {
	p, err := e.Compile(q, opts)
	if err != nil {
		return nil, err
	}
	return e.start(ctx, p, opts.withDefaults(), nil, quiet)
}

// streamPlan is the externally-compiled-plan entry (SearchPlan /
// StreamPlan and their shared-source forms): the plan comes from an
// earlier Compile — possibly another engine's, possibly under different
// options — so validate and check before running.
func (e *Engine) streamPlan(ctx context.Context, p *Plan, opts Options, shared []SubSource, quiet bool) (*Stream, error) {
	if err := opts.Validate(); err != nil {
		return nil, badRequest(err)
	}
	opts = opts.withDefaults()
	if err := p.check(e, opts); err != nil {
		return nil, err
	}
	if shared != nil {
		if opts.TimeBound > 0 {
			return nil, badRequest(fmt.Errorf("core: sub-query sharing requires the exact mode (TimeBound = 0)"))
		}
		if want := p.Subqueries(); len(shared) != want {
			return nil, fmt.Errorf("core: %d sub-query sources for a plan with %d sub-queries", len(shared), want)
		}
	}
	return e.start(ctx, p, opts, shared, quiet)
}

// start runs the pipeline from a compiled plan with normalized, validated
// options. shared[i], when non-nil, feeds sub-query i from a shared
// whole-graph enumeration instead of a private searcher. The timed window
// (Result.Elapsed) covers the run, not the compilation — a plan-cache hit
// in the serving layer pays neither.
func (e *Engine) start(ctx context.Context, p *Plan, opts Options, shared []SubSource, quiet bool) (*Stream, error) {
	if opts.TimeBound > 0 {
		e.perMatchCost() // calibrate outside the timed window
	}
	start := time.Now()
	var sc *scatter // a non-compiled plan has nothing to search
	if p.compiled {
		var err error
		if sc, err = e.openSources(ctx, p, opts, shared); err != nil {
			return nil, err
		}
	}
	buffer := streamBuffer
	if quiet {
		buffer = 0 // no events will be emitted
	}
	s := &Stream{events: make(chan Event, buffer), done: make(chan struct{}), quiet: quiet}
	if quiet {
		e.run(ctx, s, p, sc, opts, start)
	} else {
		go e.run(ctx, s, p, sc, opts, start)
	}
	return s, nil
}

// run is the one gather pipeline behind every engine's Stream: scatter the
// search phase over the run's sources (exact: each prefetches its share of
// k, then feeds a demand-driven sorted stream; time-bounded: each collects
// eagerly under Algorithm 3's estimator), merge the sources of each
// sub-query, run the TA assembly over the merged streams, and close with
// the stats, the final ranking and the terminal event. A sub-query with
// one source — the whole-graph engine always, a one-shard partition —
// skips the merger.
func (e *Engine) run(ctx context.Context, s *Stream, p *Plan, sc *scatter, opts Options, start time.Time) {
	res := &Result{Decomposition: p.d}
	if p.compiled {
		s.emit(PhaseEvent{Phase: PhaseSearch})
		var streams []ta.Stream
		if opts.TimeBound > 0 {
			streams = e.collectEager(ctx, s, sc, opts, res)
		} else {
			streams = prefetchSorted(ctx, s, sc, opts.K)
		}
		asm := ta.NewAssembler(streams, opts.K)
		var onRound func(int)
		if !s.quiet {
			onRound = func(r int) {
				lk, umax := asm.Bounds()
				s.emitProvisional(e, p.d, asm.Provisional(), lk, umax, r)
			}
		}
		finals := asm.Run(onRound)
		if sc.finish != nil {
			if err := sc.finish(); err != nil {
				s.fail(err)
				return
			}
		}
		res.SearchStats = make([]astar.Stats, len(sc.sources))
		if sc.shards > 0 {
			res.ShardEffort = make([]astar.Stats, sc.shards)
		}
		for sub, srcs := range sc.sources {
			for _, src := range srcs {
				st := src.Stats()
				addStats(&res.SearchStats[sub], st)
				if sh := src.Shard(); sh > 0 {
					addStats(&res.ShardEffort[sh-1], st)
				}
			}
		}
		res.Answers = e.renderAnswers(finals, p.d)
		// The closing top-k snapshot: guaranteed even when no provisional
		// round changed the ranking, so consumers always see the final
		// ranking as the last TopKEvent before the terminal result.
		s.emit(TopKEvent{Answers: res.Answers, LowerK: s.lk, UpperMax: s.umax, Round: s.round})
	}
	res.Elapsed = time.Since(start)
	s.res = res
	s.emit(ResultEvent{Result: res})
	close(s.events)
	close(s.done)
}

func addStats(agg *astar.Stats, st astar.Stats) {
	agg.Popped += st.Popped
	agg.Pushed += st.Pushed
	agg.Pruned += st.Pruned
	agg.Emitted += st.Emitted
}

// prefetchSorted is the exact mode's search phase: every source
// prefetches its proportional share of k concurrently — if the top-k
// distributes evenly across a partition, each shard contributes about k/N
// — then resumes lazily behind its buffer. The gather stays demand-driven
// past the prefetch: the TA assembly pulls further matches through the
// sorted mergers only when its L_k/U_max bounds require them, and only
// from the source whose head is actually competitive — skew (all
// candidates in one shard) costs lazy pulls, never a restart.
func prefetchSorted(ctx context.Context, s *Stream, sc *scatter, k int) []ta.Stream {
	share := k
	var sem chan struct{}
	if sc.shards > 1 {
		share = 1 + (k-1)/sc.shards
		sem = make(chan struct{}, sc.workers)
	}
	quiet := s.quiet // hoisted: the per-match emit would otherwise box an event just to drop it
	resumes := make([][]*resumeStream, len(sc.sources))
	var wg sync.WaitGroup
	for sub, srcs := range sc.sources {
		resumes[sub] = make([]*resumeStream, len(srcs))
		for i, src := range srcs {
			r := &resumeStream{ctx: ctx, search: src}
			resumes[sub][i] = r
			wg.Add(1)
			go func(sub int, src matchSource) {
				defer wg.Done()
				if sem != nil {
					sem <- struct{}{}
					defer func() { <-sem }()
				}
				for len(r.buf) < share && ctx.Err() == nil {
					m, ok := src.Next()
					if !ok {
						break
					}
					r.buf = append(r.buf, m)
					if !quiet {
						s.emit(ProgressEvent{Shard: src.Shard(), Sub: sub, Collected: len(r.buf)})
					}
				}
				if !quiet {
					s.emit(ProgressEvent{Shard: src.Shard(), Sub: sub, Collected: len(r.buf), Done: true})
				}
			}(sub, src)
		}
	}
	wg.Wait()

	// Gather: a single source is already the sorted, per-entity-deduplicated
	// stream the assembly wants; several go through the k-way merger in
	// shard order.
	counts := make([]int, len(sc.sources))
	streams := make([]ta.Stream, len(sc.sources))
	for sub, rs := range resumes {
		if len(rs) == 1 {
			counts[sub], streams[sub] = len(rs[0].buf), rs[0]
			continue
		}
		srcs := make([]merge.Source, len(rs))
		for i, r := range rs {
			counts[sub] += len(r.buf)
			srcs[i] = r
		}
		streams[sub] = merge.Sorted(srcs...)
	}
	s.emit(PhaseEvent{Phase: PhaseAssemble, Collected: counts})
	return streams
}

// collectEager is the time-bounded mode's search phase (Algorithms 2 and
// 3): every source collects eagerly and concurrently — all of them, as
// the estimator requires — until the alert threshold T·r%; the collected
// sets are then merged per sub-query (best match per end node across
// shards) into the slices the assembly consumes. Local sources share the
// one estimator created here, T̂ = elapsed + Σ|M̂|·t with Σ counting
// distinct entities per (shard, sub-query) set: an entity reachable
// through first hops in several shards counts once per shard, so a
// partitioned alert can only fire earlier than the whole-graph one — the
// time bound is never loosened by sharding.
func (e *Engine) collectEager(ctx context.Context, s *Stream, sc *scatter, opts Options, res *Result) []ta.Stream {
	quiet := s.quiet
	var onAlert func(elapsed, projected time.Duration)
	if !quiet {
		onAlert = func(elapsed, projected time.Duration) {
			s.emit(PhaseEvent{Phase: PhaseAlert, Elapsed: elapsed, Projected: projected})
		}
	}
	est := tbq.NewEstimator(ctx, tbq.Config{
		Bound:      opts.TimeBound,
		AlertRatio: opts.AlertRatio,
		PerMatchTA: e.perMatchCost(),
		Clock:      opts.Clock,
	}, onAlert)

	sets := make([][]map[kg.NodeID]astar.Match, len(sc.sources))
	var dry atomic.Bool
	dry.Store(true)
	var wg sync.WaitGroup
	for sub, srcs := range sc.sources {
		sets[sub] = make([]map[kg.NodeID]astar.Match, len(srcs))
		for i, src := range srcs {
			wg.Add(1)
			go func(sub, i int, src matchSource) {
				defer wg.Done()
				var onNew func(total int)
				if !quiet {
					onNew = func(total int) {
						s.emit(ProgressEvent{Shard: src.Shard(), Sub: sub, Collected: total})
					}
				}
				best, exhausted := src.Collect(est, onNew)
				sets[sub][i] = best
				if !exhausted {
					dry.Store(false)
				}
				if !quiet {
					s.emit(ProgressEvent{Shard: src.Shard(), Sub: sub, Collected: len(best), Done: true})
				}
			}(sub, i, src)
		}
	}
	wg.Wait()

	streams := make([]ta.Stream, len(sc.sources))
	counts := make([]int, len(sc.sources))
	for sub := range streams {
		ms := merge.BestByEnd(sets[sub]...) // shard order: deterministic equal-PSS winner
		counts[sub] = len(ms)
		streams[sub] = &ta.SliceStream{Matches: ms}
	}
	res.Approximate = !dry.Load()
	res.Collected = counts
	s.emit(PhaseEvent{Phase: PhaseAssemble, Collected: counts})
	return streams
}

// emitProvisional emits a TopKEvent when the provisional ranking changed
// since the last emission, and records the round's bounds.
func (s *Stream) emitProvisional(e *Engine, d *query.Decomposition, finals []ta.Final, lk, umax float64, round int) {
	s.lk, s.umax, s.round = lk, umax, round
	sig := make([]provisionalKey, len(finals))
	for i, f := range finals {
		sig[i] = provisionalKey{pivot: f.Pivot, score: f.Score}
	}
	if slices.Equal(sig, s.lastTopK) {
		return
	}
	s.lastTopK = sig
	s.emit(TopKEvent{Answers: e.renderAnswers(finals, d), LowerK: lk, UpperMax: umax, Round: round})
}

// provisionalKey identifies one provisional ranking entry for change
// detection between assembly rounds.
type provisionalKey struct {
	pivot kg.NodeID
	score float64
}
