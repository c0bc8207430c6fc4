package api

import (
	"encoding/json"
	"fmt"

	"semkg/internal/core"
)

// Wire event discriminators (the "event" field of an NDJSON line).
const (
	EventProgress = "progress"
	EventTopK     = "topk"
	EventPhase    = "phase"
	EventResult   = "result"
	EventError    = "error"
)

// Event is the wire form of one stream event: a single struct with an
// "event" discriminator, so every NDJSON line is self-describing. Only the
// fields of the discriminated kind are populated:
//
//   - progress: sub, collected, done, shard
//   - phase:    phase, plus elapsed/projected (alert) or sizes (assemble)
//   - topk:     round, lower_k, upper_max, answers
//   - result:   result
type Event struct {
	// Event is the kind discriminator: "progress", "phase", "topk" or
	// "result". Always present.
	Event string `json:"event"`

	// Sub is the 0-based sub-query index a progress update belongs to. A
	// pointer so that sub-query 0 still serializes (omitempty would drop
	// it).
	Sub *int `json:"sub,omitempty"`
	// Collected counts the matches the source prefetched so far for the
	// sub-query.
	Collected int `json:"collected,omitempty"`
	// Done marks the final progress update of a sub-query's search phase.
	Done bool `json:"done,omitempty"`
	// Shard attributes a progress update to the shard that produced it,
	// 1-based, when the serving engine is sharded (semkgd -shards). 0 (and
	// therefore absent) on the single-engine pipeline.
	Shard int `json:"shard,omitempty"`

	// Phase names the pipeline stage being entered: "search", "alert" or
	// "assemble". "alert" means the time-bounded cut was taken: past
	// T·r% (or on cancellation) the assembly needed a match not yet
	// searched, so the run answers with its current top (flagged
	// approximate). It comes at most once per stream, only on a cut,
	// between "search" and the result.
	Phase string `json:"phase,omitempty"`
	// Elapsed accompanies the "alert" phase: the run time at the cut, as a
	// Go duration string.
	Elapsed Duration `json:"elapsed,omitempty"`
	// Projected accompanies the "alert" phase: the deadline T·r% the cut
	// passed, as a Go duration string.
	Projected Duration `json:"projected,omitempty"`
	// Sizes accompanies the "assemble" phase: the per-sub-query counts of
	// prefetched matches entering the TA assembly.
	Sizes []int `json:"sizes,omitempty"`

	// Round is the TA assembly round that produced a topk snapshot;
	// non-decreasing within one stream.
	Round int `json:"round,omitempty"`
	// LowerK is L_k — the exact score of the k-th complete candidate, 0
	// until k complete candidates exist.
	LowerK float64 `json:"lower_k,omitempty"`
	// UpperMax is U_max — the best upper bound of any candidate outside
	// the current top-k that can still complete (one a sub-query stream
	// that ran dry never matched cannot). The assembly terminates when
	// LowerK >= UpperMax
	// (Theorem 3), so their gap measures how far the provisional ranking
	// may still move.
	UpperMax float64 `json:"upper_max,omitempty"`
	// Answers is the provisional top-k snapshot, in rank order, at most k.
	Answers []Answer `json:"answers,omitempty"`

	// Result is the terminal payload; exactly one "result" event ends
	// every stream.
	Result *Result `json:"result,omitempty"`

	// Error is the terminal failure message of a stream that could not
	// complete (a distributed pipeline losing a whole shard, for
	// example). A stream ends in exactly one "result" or "error" event.
	Error string `json:"error,omitempty"`
}

// EventFrom converts a core stream event into its wire form.
func EventFrom(ev core.Event) (Event, error) {
	switch e := ev.(type) {
	case core.ProgressEvent:
		sub := e.Sub
		return Event{Event: EventProgress, Sub: &sub, Collected: e.Collected, Done: e.Done, Shard: e.Shard}, nil
	case core.PhaseEvent:
		return Event{
			Event:     EventPhase,
			Phase:     string(e.Phase),
			Elapsed:   Duration(e.Elapsed),
			Projected: Duration(e.Projected),
			Sizes:     e.Collected,
		}, nil
	case core.TopKEvent:
		return Event{
			Event:    EventTopK,
			Round:    e.Round,
			LowerK:   e.LowerK,
			UpperMax: e.UpperMax,
			Answers:  AnswersFrom(e.Answers),
		}, nil
	case core.ResultEvent:
		r := ResultFrom(e.Result)
		return Event{Event: EventResult, Result: &r}, nil
	case core.ErrorEvent:
		return Event{Event: EventError, Error: e.Err.Error()}, nil
	default:
		return Event{}, fmt.Errorf("api: unknown event type %T", ev)
	}
}

// EncodeEvent renders one stream event as a single NDJSON line (without
// the trailing newline).
func EncodeEvent(ev core.Event) ([]byte, error) {
	w, err := EventFrom(ev)
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// DecodeEvent parses one NDJSON event line.
func DecodeEvent(line []byte) (Event, error) {
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		return Event{}, fmt.Errorf("api: parsing event: %w", err)
	}
	if ev.Event == "" {
		return Event{}, fmt.Errorf("api: event line missing %q discriminator", "event")
	}
	return ev, nil
}
