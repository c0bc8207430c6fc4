// Streaming search: the anytime, event-driven form of the pipeline. The TA
// assembly refines a provisional top-k round by round until Theorem 3
// certifies it — or, in the response-time-bounded mode (Section VI), until
// the deadline cuts it. Stream exposes those rounds as typed events, so
// callers can render provisional top-k answers while the search is still
// running. The batch Search is a thin consumer of this pipeline.

package core

import (
	"context"
	"fmt"
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
	// PhaseAlert marks the time-bounded cut (TBQ only): past T·r% — or
	// once the run's context is cancelled — the assembly needed a match
	// the searches had not yet found, so the run stops pulling and answers
	// with its current top. At most once per run, and only when the cut is
	// taken.
	PhaseAlert Phase = "alert"
	// PhaseAssemble marks the start of the TA final-match assembly.
	PhaseAssemble Phase = "assemble"
)

// ProgressEvent reports one match source's search effort: Collected counts
// the matches the source prefetched so far for sub-query Sub. Done marks
// the end of the source's prefetch; every source reports it exactly once.
// Shard identifies the source's shard when the run scatters over a
// partition (1-based, so shard 1 is the first); it is 0 over the whole
// graph, which has one source per sub-query.
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
// (Eq. 8-11) of any candidate outside the current top-k that can still
// complete: once a sub-query's stream has run dry, a candidate it never
// matched, or one not met yet, no longer counts. The assembly terminates
// when L_k >= U_max (Theorem 3), so the gap measures how far the
// provisional ranking may still move. The last TopKEvent of a stream
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
// the run time at the cut and Projected the deadline T·r% it passed. For
// PhaseAssemble, Collected holds the prefetched match counts per
// sub-query.
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

	// The last assembly round's bounds, touched only by the pipeline
	// goroutine.
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
func (e *Engine) streamPlan(ctx context.Context, p *Plan, opts Options, shared []*SharedSearch, quiet bool) (*Stream, error) {
	if err := opts.Validate(); err != nil {
		return nil, badRequest(err)
	}
	opts = opts.withDefaults()
	if err := p.check(e, opts); err != nil {
		return nil, err
	}
	if want := p.Subqueries(); shared != nil && len(shared) != want {
		return nil, fmt.Errorf("core: %d sub-query sources for a plan with %d sub-queries", len(shared), want)
	}
	return e.start(ctx, p, opts, shared, quiet)
}

// start runs the pipeline from a compiled plan with normalized, validated
// options. shared[i], when non-nil, feeds sub-query i from a shared
// whole-graph enumeration instead of a private searcher. The timed window
// (Result.Elapsed) covers the run, not the compilation, so a caller holding
// the plan can time the two apart.
func (e *Engine) start(ctx context.Context, p *Plan, opts Options, shared []*SharedSearch, quiet bool) (*Stream, error) {
	start := time.Now()
	buffer := streamBuffer
	if quiet {
		buffer = 0 // no events will be emitted
	}
	s := &Stream{events: make(chan Event, buffer), done: make(chan struct{}), quiet: quiet}
	dl := s.deadline(opts)
	var sc *scatter // a non-compiled plan has nothing to search
	if p.compiled {
		var err error
		if sc, err = e.openSources(ctx, p, opts, shared); err != nil {
			return nil, err
		}
	}
	if quiet {
		e.run(ctx, s, p, sc, opts, dl, start)
	} else {
		go e.run(ctx, s, p, sc, opts, dl, start)
	}
	return s, nil
}

// run is the one gather pipeline behind every engine's Stream: scatter the
// search phase over the run's sources (each prefetches its share of k,
// then feeds a demand-driven sorted stream), merge the sources of each
// sub-query, run the TA assembly over the merged streams, and close with
// the stats, the final ranking and the terminal event. A sub-query with
// one source — the whole-graph engine always, a one-shard partition —
// skips the merger. A time-bounded run is the same pipeline under a
// deadline dl (nil in the exact mode) that may cut it short.
func (e *Engine) run(ctx context.Context, s *Stream, p *Plan, sc *scatter, opts Options, dl *deadline, start time.Time) {
	res := &Result{Decomposition: p.d}
	if p.compiled {
		s.emit(PhaseEvent{Phase: PhaseSearch})
		streams := prefetchSorted(ctx, s, sc, opts.K, dl)
		var cut []*cutStream
		if dl != nil {
			cut = make([]*cutStream, len(streams))
			for i, st := range streams {
				cut[i] = &cutStream{Stream: st, dl: dl}
				streams[i] = cut[i]
			}
		}
		asm := ta.NewAssembler(streams, opts.K)
		if dl != nil {
			asm.Expire(dl.taken)
		}
		var onRound func(int)
		if !s.quiet {
			// A provisional snapshot goes out only when the round changed
			// the ranking. A complete candidate's answer never changes, so
			// each is rendered once.
			shown := 0
			rendered := make(map[kg.NodeID]Answer)
			onRound = func(r int) {
				s.lk, s.umax = asm.Bounds()
				s.round = r
				if asm.Changes() == shown {
					return
				}
				shown = asm.Changes()
				prov := asm.Provisional()
				answers := make([]Answer, len(prov))
				for i, f := range prov {
					a, ok := rendered[f.Pivot]
					if !ok {
						a = e.renderAnswer(f, p.d)
						rendered[f.Pivot] = a
					}
					answers[i] = a
				}
				s.emit(TopKEvent{Answers: answers, LowerK: s.lk, UpperMax: s.umax, Round: r})
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
		if dl != nil {
			res.Approximate = dl.taken()
			res.Collected = make([]int, len(cut))
			for i, c := range cut {
				res.Collected[i] = c.n
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

// prefetchSorted is the search phase: every source prefetches its
// proportional share of k concurrently — if the top-k distributes evenly
// across a partition, each shard contributes about k/N — then resumes
// lazily behind its buffer. The gather stays demand-driven past the
// prefetch: the TA assembly pulls further matches through the sorted
// mergers only when its L_k/U_max bounds require them, and only from the
// source whose head is actually competitive — skew (all candidates in one
// shard) costs lazy pulls, never a restart. Past dl, a prefetch stops and
// a lazy pull is refused. Every prefetch starts at once: the serving
// layer's admission pool already bounds concurrent runs, and a source
// queued behind others would only sit with an empty buffer.
func prefetchSorted(ctx context.Context, s *Stream, sc *scatter, k int, dl *deadline) []ta.Stream {
	share := k
	if sc.shards > 1 {
		share = 1 + (k-1)/sc.shards
	}
	quiet := s.quiet // hoisted: the per-match emit would otherwise box an event just to drop it
	resumes := make([][]*resumeStream, len(sc.sources))
	var wg sync.WaitGroup
	for sub, srcs := range sc.sources {
		resumes[sub] = make([]*resumeStream, len(srcs))
		for i, src := range srcs {
			r := &resumeStream{ctx: ctx, dl: dl, search: src}
			resumes[sub][i] = r
			wg.Add(1)
			go func(sub int, src matchSource) {
				defer wg.Done()
				for len(r.buf) < share && ctx.Err() == nil && !dl.due() {
					m, ok := r.pull()
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

// deadline is the time-bounded mode (Section VI) as a cut of the exact
// pipeline: at run start + T·r% on the run's clock the searches stop
// pulling. Prefetches stop early, so the assembly may still drain what they
// buffered; the first pull that would search further is refused, which
// takes the cut — PhaseAlert, then the top's complete candidates as an
// approximate answer. Cancelling the run's context takes the cut the same
// way. A run that terminates by Theorem 3 or exhaustion first returns the
// exact answer, however late: more time only lets more runs finish, so the
// answer converges to the exact top-k (Theorem 4).
type deadline struct {
	s         *Stream
	clock     tbq.Clock
	start, at time.Time
	late      atomic.Bool // the clock has reached at
	cut       atomic.Bool // a pull was refused
}

// deadline mints opts' deadline, or nil in the exact mode.
func (s *Stream) deadline(opts Options) *deadline {
	if opts.TimeBound <= 0 {
		return nil
	}
	r := opts.AlertRatio
	if r <= 0 {
		r = tbq.DefaultAlertRatio
	}
	d := &deadline{s: s, clock: opts.Clock}
	if d.clock == nil {
		d.clock = tbq.WallClock{}
	}
	d.start = d.clock.Now()
	d.at = d.start.Add(time.Duration(float64(opts.TimeBound) * r))
	return d
}

// due reports whether the clock has reached the deadline; false on nil.
func (d *deadline) due() bool {
	if d == nil {
		return false
	}
	if d.late.Load() {
		return true
	}
	if d.clock.Now().Before(d.at) {
		return false
	}
	d.late.Store(true)
	return true
}

// refuse reports whether a lazy pull must be refused: ctx is cancelled or
// the deadline passed. On a non-nil deadline the first refusal takes the
// cut and emits PhaseAlert.
func (d *deadline) refuse(ctx context.Context) bool {
	if ctx.Err() == nil && !d.due() {
		return false
	}
	if d != nil && d.cut.CompareAndSwap(false, true) {
		d.s.emit(PhaseEvent{Phase: PhaseAlert, Elapsed: d.clock.Now().Sub(d.start), Projected: d.at.Sub(d.start)})
	}
	return true
}

// taken reports whether the cut was taken.
func (d *deadline) taken() bool { return d.cut.Load() }

// cutStream is one sub-query's stream as a time-bounded assembly sees it.
// Once the cut is taken it yields nothing, and it drops the match of the
// pull that took it: a merged stream whose source was refused mid-pull may
// be missing that source's better matches. n counts the matches delivered.
type cutStream struct {
	ta.Stream
	dl *deadline
	n  int
}

// Restrict forwards the assembly's hint to the stream under the cut.
func (c *cutStream) Restrict(want func(kg.NodeID) bool) {
	if rs, ok := c.Stream.(ta.Restricter); ok {
		rs.Restrict(want)
	}
}

func (c *cutStream) Next() (astar.Match, bool) {
	m, ok := c.Stream.Next()
	if !ok || c.dl.taken() {
		return astar.Match{}, false
	}
	c.n++
	return m, true
}
