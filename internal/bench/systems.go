package bench

import (
	"context"
	"math/rand"
	"time"

	"semkg/internal/baseline"
	"semkg/internal/datagen"
)

// System is a named query-answering method under evaluation: it answers a
// benchmark query with a ranked entity list and reports its response time.
type System struct {
	Name string
	Run  func(q datagen.GenQuery, k int) (answers []string, elapsed time.Duration)
}

// SGQ returns the semantic-guided query system (the exact pipeline).
func (e *Env) SGQ() System {
	return System{
		Name: "SGQ",
		Run: func(q datagen.GenQuery, k int) ([]string, time.Duration) {
			res, err := e.Engine.Search(context.Background(), q.Graph, e.SearchOptions(k))
			if err != nil {
				return nil, 0
			}
			return res.EntitiesOf(q.Focus), res.Elapsed
		},
	}
}

// TBQ returns the time-bounded system with the bound set to factor × the
// measured SGQ time for the same query (the paper's TBQ-0.9 sets 90%).
func (e *Env) TBQ(factor float64) System {
	return System{
		Name: "TBQ-0.9",
		Run: func(q datagen.GenQuery, k int) ([]string, time.Duration) {
			ref, err := e.Engine.Search(context.Background(), q.Graph, e.SearchOptions(k))
			if err != nil {
				return nil, 0
			}
			bound := time.Duration(float64(ref.Elapsed) * factor)
			return e.TBQBounded(q, k, bound)
		},
	}
}

// TBQBounded runs one time-bounded query with an explicit bound.
func (e *Env) TBQBounded(q datagen.GenQuery, k int, bound time.Duration) ([]string, time.Duration) {
	opts := e.SearchOptions(k)
	opts.TimeBound = bound
	res, err := e.Engine.Search(context.Background(), q.Graph, opts)
	if err != nil {
		return nil, 0
	}
	return res.EntitiesOf(q.Focus), res.Elapsed
}

// Baselines returns the comparison systems of Figures 12-14:
// {GraB, S4, QGA, p-hom}. S4's prior is sampled at the given quality.
func (e *Env) Baselines(priorQuality float64) []System {
	g, lib := e.Dataset.Graph, e.Dataset.Library
	return wrapMethods(
		baseline.NewGraB(g),
		baseline.NewS4(g, e.prior(priorQuality)),
		baseline.NewQGA(g, lib),
		baseline.NewPHom(g),
	)
}

// AllBaselines returns every Table I comparator:
// {gStore, SLQ, NeMa, S4, p-hom, GraB, QGA}.
func (e *Env) AllBaselines(priorQuality float64) []System {
	g, lib := e.Dataset.Graph, e.Dataset.Library
	return wrapMethods(
		baseline.NewGStore(g),
		baseline.NewSLQ(g, lib),
		baseline.NewNeMa(g),
		baseline.NewS4(g, e.prior(priorQuality)),
		baseline.NewPHom(g),
		baseline.NewGraB(g),
		baseline.NewQGA(g, lib),
	)
}

func wrapMethods(methods ...baseline.Method) []System {
	out := make([]System, len(methods))
	for i, m := range methods {
		out[i] = System{
			Name: m.Name(),
			Run: func(q datagen.GenQuery, k int) ([]string, time.Duration) {
				start := time.Now()
				ranked := m.Search(q.Graph, q.Focus, k)
				elapsed := time.Since(start)
				names := make([]string, len(ranked))
				for j, r := range ranked {
					names[j] = r.Entity
				}
				return names, elapsed
			},
		}
	}
	return out
}

// prior samples S4's prior instances at the given quality.
func (e *Env) prior(quality float64) []baseline.PriorInstance {
	in := e.Dataset.Prior(100, quality, rand.New(rand.NewSource(17)))
	out := make([]baseline.PriorInstance, len(in))
	for i, p := range in {
		out[i] = baseline.PriorInstance{
			FocusType:  p.FocusType,
			AnchorType: p.AnchorType,
			Predicates: p.Predicates,
		}
	}
	return out
}
