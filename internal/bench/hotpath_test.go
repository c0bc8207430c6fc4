package bench

import (
	"context"
	"testing"
)

// TestLegacyPipelineMatchesEngine is the end-to-end regression of the
// hot-path refactor on a fixed query set: the replayed seed pipeline
// (scan matching + ScanWeighter + LegacySearcher + TA) must produce the
// identical ranked answers — same pivots, same order, bitwise-equal
// scores and part pss — as Engine.Search on every workload query.
func TestLegacyPipelineMatchesEngine(t *testing.T) {
	env := testEnv(t)
	ctx := context.Background()
	queries := env.Dataset.Simple
	queries = append(queries, env.Dataset.Medium...)
	queries = append(queries, env.Dataset.Complex...)
	for _, q := range queries {
		_, finals, err := runLegacySearch(env, q.Graph, 20)
		if err != nil {
			t.Fatalf("%s: legacy pipeline: %v", q.Name, err)
		}
		res, err := env.Engine.Search(ctx, q.Graph, env.SearchOptions(20))
		if err != nil {
			t.Fatalf("%s: engine: %v", q.Name, err)
		}
		if len(res.Answers) != len(finals) {
			t.Fatalf("%s: engine returned %d answers, legacy %d",
				q.Name, len(res.Answers), len(finals))
		}
		for i, f := range finals {
			a := res.Answers[i]
			if a.Pivot != f.Pivot {
				t.Fatalf("%s: answer %d pivot %v (engine) vs %v (legacy)",
					q.Name, i, a.PivotName, env.Dataset.Graph.NodeName(f.Pivot))
			}
			if a.Score != f.Score {
				t.Fatalf("%s: answer %d score %v (engine) vs %v (legacy)",
					q.Name, i, a.Score, f.Score)
			}
			if len(a.Parts) != len(f.Parts) {
				t.Fatalf("%s: answer %d has %d parts (engine) vs %d (legacy)",
					q.Name, i, len(a.Parts), len(f.Parts))
			}
			for pi := range a.Parts {
				if a.Parts[pi].PSS != f.Parts[pi].PSS {
					t.Fatalf("%s: answer %d part %d pss %v (engine) vs %v (legacy)",
						q.Name, i, pi, a.Parts[pi].PSS, f.Parts[pi].PSS)
				}
			}
		}
	}
}

// TestRunHotpathShape checks the experiment artifact: all four pairs
// measured on both sides with sane values. It runs the real benchmarks
// with testing.Benchmark, so it is skipped in -short mode.
func TestRunHotpathShape(t *testing.T) {
	art := run(t, "hotpath")
	checkWritten(t, art)
	if len(art.Rows) != 8 {
		t.Fatalf("hotpath rows = %d, want 4 pairs x 2 sides", len(art.Rows))
	}
	for _, name := range []string{"AStarNext", "NodeMax", "MatchNode", "SearchEndToEnd"} {
		before, after := row(t, art, "hotpath", name+"/before").Values, row(t, art, "hotpath", name+"/after").Values
		if before["ns_per_op"] <= 0 || after["ns_per_op"] <= 0 {
			t.Errorf("%s: non-positive timings: %v / %v", name, before, after)
		}
		if before["allocs_per_op"] < 0 || after["allocs_per_op"] < 0 {
			t.Errorf("%s: negative allocs: %v / %v", name, before, after)
		}
		if after["speedup"] <= 0 {
			t.Errorf("%s: speedup not recorded: %v", name, after)
		}
	}
}
