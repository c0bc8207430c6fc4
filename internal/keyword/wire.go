package keyword

// Wire conversion lives here, not in internal/api: api defines the pure
// wire structs and strict decoders (shared by servers and clients) and
// must stay import-free of the engine stack, while this package already
// sits on top of it. Servers convert with WireResult/EncodeEvent/
// WireSuggestions; clients decode with api.Decode*.

import (
	"encoding/json"
	"fmt"

	"semkg/internal/api"
)

// WireResult converts a front-end response into its wire form.
func WireResult(r *Response) api.KeywordResult {
	out := api.KeywordResult{
		Executed:        r.Executed,
		Answers:         make([]api.KeywordAnswer, len(r.Answers)),
		AssemblyElapsed: api.Duration(r.Assembly.Elapsed),
		Elapsed:         api.Duration(r.Elapsed),
		Generation:      r.Generation,
	}
	out.Keywords, out.Unmatched, out.Candidates = wireAssembly(r.Assembly)
	for _, run := range r.Runs {
		out.Runs = append(out.Runs, api.KeywordRun{
			Candidate:   run.Index,
			Answers:     run.Answers,
			Elapsed:     api.Duration(run.Elapsed),
			Approximate: run.Approximate,
			Error:       run.Err,
		})
	}
	for i, a := range r.Answers {
		out.Answers[i] = api.KeywordAnswer{
			Answer:    api.AnswerFrom(a.Answer),
			Blended:   a.Blended,
			Candidate: a.Candidate,
		}
	}
	return out
}

// wireAssembly converts the assembly fields a result and an assembly
// event share: the normalized keywords, the unmatched ones and every
// scored candidate.
func wireAssembly(a *Assembly) (keywords, unmatched []string, candidates []api.KeywordCandidate) {
	for _, tok := range a.Tokens {
		keywords = append(keywords, tok.Norm)
	}
	for _, c := range a.Candidates {
		candidates = append(candidates, api.KeywordCandidate{
			Query:    api.QueryFrom(c.Query),
			Score:    c.Score,
			Coverage: c.Coverage,
			Explain:  c.Explain,
		})
	}
	return keywords, a.Unmatched, candidates
}

// wireEvent converts a front-end stream event into its wire form.
func wireEvent(ev Event) (api.KeywordEvent, error) {
	switch {
	case ev.Assembly != nil:
		out := api.KeywordEvent{Event: api.KeywordEventAssembly, Executed: ev.Executed}
		out.Keywords, out.Unmatched, out.Candidates = wireAssembly(ev.Assembly)
		return out, nil
	case ev.Final != nil:
		r := WireResult(ev.Final)
		return api.KeywordEvent{Event: api.KeywordEventResult, Result: &r}, nil
	case ev.Inner != nil:
		inner, err := api.EventFrom(ev.Inner)
		if err != nil {
			return api.KeywordEvent{}, err
		}
		c := ev.Candidate
		return api.KeywordEvent{Event: api.KeywordEventEngine, Candidate: &c, Inner: &inner}, nil
	default:
		return api.KeywordEvent{}, fmt.Errorf("keyword: event with no payload")
	}
}

// EncodeEvent renders one keyword-stream event as a single NDJSON line
// (without the trailing newline).
func EncodeEvent(ev Event) ([]byte, error) {
	w, err := wireEvent(ev)
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// WireSuggestions converts a suggestion set to its wire form.
func WireSuggestions(s *Suggestions) api.SuggestResult {
	out := api.SuggestResult{
		Query:       s.Query,
		Suggestions: make([]api.Suggestion, len(s.Items)),
		Generation:  s.Generation,
		Elapsed:     api.Duration(s.Elapsed),
	}
	for i, it := range s.Items {
		out.Suggestions[i] = api.Suggestion{
			Text:  it.Text,
			Kind:  string(it.Kind),
			Via:   string(it.Via),
			Count: it.Count,
			Score: it.Score,
		}
	}
	return out
}
