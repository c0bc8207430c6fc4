// Keyword experiment: the cost and quality of the keyword front end
// (internal/keyword) against the structured baseline it assembles into.
// Keywords are derived from the generated Simple workload ("<focus type>
// <predicate> <anchor entity>"), so every input has a ground-truth
// validation set. Four rows per environment:
//
//   - assembly latency alone (tokenize → match → enumerate → score);
//   - end-to-end latency and answer quality (precision/recall/F1 against
//     the workload truth) of blended multi-candidate keyword search, of
//     executing only the single best candidate, and of the hand-written
//     structured query through the same serving layer (result cache off,
//     so every number is a real pipeline execution).
package bench

import (
	"context"
	"fmt"
	"strings"

	"semkg/internal/datagen"
	"semkg/internal/keyword"
	"semkg/internal/metrics"
	"semkg/internal/query"
	"semkg/internal/serve"
)

// keywordCase is one benchmark input: derived keywords plus the
// structured query and truth they came from.
type keywordCase struct {
	input string
	gq    *query.Graph
	truth []string
}

// keywordCases derives keyword inputs from the Simple workload: the focus
// type, every distinct predicate, and every anchor entity of each query,
// in document order.
func keywordCases(env *Env, limit int) []keywordCase {
	var out []keywordCase
	for _, gq := range env.Dataset.Simple {
		if limit > 0 && len(out) >= limit {
			break
		}
		var words []string
		for _, n := range gq.Graph.Nodes {
			if n.Name == "" && n.Type != "" {
				words = append(words, n.Type)
			}
		}
		seen := map[string]bool{}
		for _, e := range gq.Graph.Edges {
			if !seen[e.Predicate] {
				seen[e.Predicate] = true
				words = append(words, e.Predicate)
			}
		}
		for _, n := range gq.Graph.Nodes {
			if n.Name != "" {
				words = append(words, n.Name)
			}
		}
		out = append(out, keywordCase{
			input: strings.Join(words, " "),
			gq:    gq.Graph,
			truth: gq.Truth,
		})
	}
	return out
}

// runKeyword measures the keyword front end.
func runKeyword(ctx context.Context, p Params) (*Artifact, error) {
	env, err := p.env(datagen.DBpediaLike)
	if err != nil {
		return nil, err
	}
	rounds, limit := 6, 0
	if p.Short {
		rounds, limit = 2, 5
	}
	cases := keywordCases(env, limit)
	if len(cases) == 0 {
		return nil, fmt.Errorf("bench: environment has no keyword cases")
	}
	opts := env.SearchOptions(10)
	art := env.artifact("keyword")

	// Result cache off: every latency sample below is a real pipeline
	// execution, not a cache hit.
	srv := serve.New(env.Engine, serve.Config{ResultCache: -1})
	front := keyword.New(srv)

	// replay runs every case through answer for the given rounds and adds
	// the workload's row; quality is judged on the first round's answers.
	replay := func(name string, answer func(ctx context.Context, c keywordCase) ([]string, error)) (*Row, error) {
		var prs []metrics.PR
		s := Drive(ctx, Load{Requests: rounds * len(cases)}, func(ctx context.Context, _, i int) error {
			c := cases[i%len(cases)]
			entities, err := answer(ctx, c)
			if err != nil {
				return fmt.Errorf("%s %q: %w", name, c.input, err)
			}
			if i < len(cases) && entities != nil {
				prs = append(prs, metrics.Evaluate(entities, c.truth))
			}
			return nil
		})
		if s.Err != nil {
			return nil, s.Err
		}
		values := map[string]float64{"queries": float64(len(cases)), "rounds": float64(rounds)}
		if prs != nil {
			pr := metrics.Mean(prs)
			values["precision"], values["recall"], values["f1"] = pr.Precision, pr.Recall, pr.F1
		}
		row := art.add("keyword", name, values)
		row.Sample = &s
		return row, nil
	}

	candidates := 0
	row, err := replay("assembly", func(_ context.Context, c keywordCase) ([]string, error) {
		candidates += len(keyword.Assemble(env.Dataset.Graph, c.input).Candidates)
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	row.Values["candidates_mean"] = float64(candidates) / float64(rounds*len(cases))

	// Blended multi-candidate search (0 = the front end's default blend
	// width), then the best single candidate only.
	executed := 0
	viaKeywords := func(maxCandidates int) func(context.Context, keywordCase) ([]string, error) {
		return func(ctx context.Context, c keywordCase) ([]string, error) {
			resp, err := front.Search(ctx, c.input, opts, maxCandidates)
			if err != nil {
				return nil, err
			}
			executed += resp.Executed
			entities := make([]string, len(resp.Answers))
			for i, a := range resp.Answers {
				entities[i] = a.Entity
			}
			return entities, nil
		}
	}
	if row, err = replay("keyword-blended", viaKeywords(0)); err != nil {
		return nil, err
	}
	row.Values["executed_mean"] = float64(executed) / float64(rounds*len(cases))
	if _, err := replay("keyword-single", viaKeywords(1)); err != nil {
		return nil, err
	}

	// Structured baseline: the hand-written query through the same
	// serving layer.
	if _, err := replay("structured", func(ctx context.Context, c keywordCase) ([]string, error) {
		res, err := srv.Search(ctx, c.gq, opts)
		if err != nil {
			return nil, err
		}
		entities := make([]string, len(res.Answers))
		for i, a := range res.Answers {
			entities[i] = a.PivotName
		}
		return entities, nil
	}); err != nil {
		return nil, err
	}
	return art, nil
}
