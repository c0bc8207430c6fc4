// The twelve paper reproductions of Section VII (`kgbench -exp all`).
// Their response times are the engine's own Result.Elapsed per query, not
// a client loop, so they add rows directly rather than through Drive.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"semkg/internal/astar"
	"semkg/internal/core"
	"semkg/internal/datagen"
	"semkg/internal/metrics"
	"semkg/internal/query"
	"semkg/internal/ta"
	"semkg/internal/tbq"
)

// prValues is the value map of an effectiveness row.
func prValues(pr metrics.PR, timeMS float64) map[string]float64 {
	return map[string]float64{"p": pr.Precision, "r": pr.Recall, "f1": pr.F1, "time_ms": timeMS}
}

// simpleSweep runs the simple workload once under opts (k and the
// defaults filled in by the caller), returning mean P/R/F1, mean response
// time and total A* expansions. Queries that fail to compile are skipped
// from the effectiveness mean, as every sweep below did.
func simpleSweep(ctx context.Context, env *Env, graphOf func(datagen.GenQuery) *query.Graph, opts core.Options) (metrics.PR, float64, int) {
	var prs []metrics.PR
	var totalMS float64
	popped := 0
	for _, q := range env.Dataset.Simple {
		r, err := env.Engine.Search(ctx, graphOf(q), opts)
		if err != nil {
			continue
		}
		prs = append(prs, metrics.Evaluate(r.EntitiesOf(q.Focus), q.Truth))
		totalMS += ms(r.Elapsed)
		for _, s := range r.SearchStats {
			popped += s.Popped
		}
	}
	return metrics.Mean(prs), totalMS / float64(len(env.Dataset.Simple)), popped
}

func asIs(q datagen.GenQuery) *query.Graph { return q.Graph }

// --- E1: Table I — Q117 variants × all methods ------------------------------

// runTable1 evaluates every method on the four Q117 query-graph variants
// of Fig. 1 (G1: synonym type, G2: abbreviated name, G3: sibling
// predicate, G4: canonical) with k = |validation set| (the paper sets
// k = 596 for the same reason). A variant a method cannot answer at all
// has no gN_p / gN_r values.
func runTable1(_ context.Context, p Params) (*Artifact, error) {
	env, err := p.env(datagen.DBpediaLike)
	if err != nil {
		return nil, err
	}
	variants := env.Dataset.Table1
	k := len(variants[0].Truth)
	art := env.artifact("table1")
	section := fmt.Sprintf("Table I: precision/recall on the Q117 variants (top-k=%d)", k)
	for _, sys := range append([]System{env.SGQ()}, env.AllBaselines(0.7)...) {
		values := map[string]float64{}
		for i, q := range variants {
			answers, _ := sys.Run(q, k)
			if len(answers) == 0 {
				continue
			}
			pr := metrics.Evaluate(answers, q.Truth)
			values[fmt.Sprintf("g%d_p", i+1)] = pr.Precision
			values[fmt.Sprintf("g%d_r", i+1)] = pr.Recall
		}
		art.add(section, sys.Name, values)
	}
	return art, nil
}

// --- E2/E3: Figures 12-14 — effectiveness & efficiency vs top-k -------------

// figure evaluates {TBQ-0.9, SGQ, GraB, S4, QGA, p-hom} over one
// dataset's simple workload for k ∈ {10, 20, 40, 80} — the paper's
// {20, 40, 100, 200} scaled to the synthetic validation-set sizes — one
// row per (method, k) with mean P/R/F1 and response time.
func figure(name string, profile func(float64) datagen.Profile) func(context.Context, Params) (*Artifact, error) {
	return func(_ context.Context, p Params) (*Artifact, error) {
		env, err := p.env(profile)
		if err != nil {
			return nil, err
		}
		art := env.artifact(name)
		section := fmt.Sprintf("Figures 12-14: effectiveness and response time vs top-k (%s)", env.Cfg.Profile.Name)
		for _, sys := range append([]System{env.TBQ(0.9), env.SGQ()}, env.Baselines(0.5)...) {
			for _, k := range []int{10, 20, 40, 80} {
				var prs []metrics.PR
				var totalMS float64
				for _, q := range env.Dataset.Simple {
					answers, elapsed := sys.Run(q, k)
					prs = append(prs, metrics.Evaluate(answers, q.Truth))
					totalMS += ms(elapsed)
				}
				art.add(section, fmt.Sprintf("%s k=%d", sys.Name, k),
					prValues(metrics.Mean(prs), totalMS/float64(len(env.Dataset.Simple))))
			}
		}
		return art, nil
	}
}

// --- E4: Figure 15 — effect of time bounds ------------------------------------

// runFig15 measures TBQ effectiveness and response time across time
// bounds expressed as fractions of the measured SGQ time per query (the
// paper sweeps 20-90 ms absolute; fractions transport the sweep to the
// synthetic scale). Each fraction has two rows: the served time-bounded
// mode (the exact pipeline cut at T·r%) and "alg3", the paper's
// Algorithms 2-3 (eager collection under the T̂ estimator, then TA over
// the collected sets) run on the same queries and bounds. Algorithm 3's
// per-match assembly cost t is measured on this workload first (t_ns):
// the wall time of assembling every query's exhausted eager sets at k,
// over the matches in them.
func runFig15(ctx context.Context, p Params) (*Artifact, error) {
	env, err := p.env(datagen.DBpediaLike)
	if err != nil {
		return nil, err
	}
	const k = 40
	queries := env.Dataset.Simple
	refs := make([]time.Duration, len(queries))
	sgq := env.SGQ()
	for i, q := range queries {
		_, refs[i] = sgq.Run(q, k)
	}
	perMatch, err := measurePerMatch(ctx, env, queries, k)
	if err != nil {
		return nil, err
	}
	art := env.artifact("fig15")
	section := fmt.Sprintf("Figure 15: effect of time bounds (k=%d)", k)
	// The bounds at this scale are tens of microseconds; repeat each
	// measurement to damp scheduler noise.
	const reps = 3
	for _, f := range []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		var served, alg3 fig15Cell
		var boundSum time.Duration
		for i, q := range queries {
			bound := time.Duration(float64(refs[i]) * f)
			boundSum += bound
			for rep := 0; rep < reps; rep++ {
				answers, elapsed := env.TBQBounded(q, k, bound)
				served.add(q, answers, elapsed)
				answers, elapsed, err := runAlg3(ctx, env, q, k, tbq.Config{Bound: bound, PerMatchTA: perMatch})
				if err != nil {
					return nil, err
				}
				alg3.add(q, answers, elapsed)
			}
		}
		boundMS := ms(boundSum) / float64(len(queries))
		art.add(section, fmt.Sprintf("bound %.0f%% of SGQ time", f*100), served.values(boundMS))
		values := alg3.values(boundMS)
		values["t_ns"] = float64(perMatch)
		art.add(section, fmt.Sprintf("alg3 bound %.0f%% of SGQ time", f*100), values)
	}
	return art, nil
}

// fig15Cell accumulates one Fig. 15 row: effectiveness and response times.
type fig15Cell struct {
	prs  []metrics.PR
	resp Hist
}

func (c *fig15Cell) add(q datagen.GenQuery, answers []string, elapsed time.Duration) {
	c.prs = append(c.prs, metrics.Evaluate(answers, q.Truth))
	c.resp.Add(elapsed)
}

func (c *fig15Cell) values(boundMS float64) map[string]float64 {
	values := prValues(metrics.Mean(c.prs), ms(c.resp.Mean()))
	values["bound_ms"] = boundMS
	values["time_min_ms"] = ms(c.resp.Quantile(0))
	values["time_max_ms"] = ms(c.resp.Quantile(1))
	return values
}

// runAlg3 answers q with Algorithms 2-3 (tbq.Run) over fresh whole-graph
// searchers of its compiled plan, timed like the engine's Result.Elapsed:
// the run, not the compilation. The Fig. 15 workload's queries have one
// sub-query whose pivot is the focus node, so the finals' pivots are the
// answers.
func runAlg3(ctx context.Context, env *Env, q datagen.GenQuery, k int, cfg tbq.Config) ([]string, time.Duration, error) {
	plan, err := env.Engine.Compile(q.Graph, env.SearchOptions(k))
	if err != nil || !plan.Compiled() {
		return nil, 0, err
	}
	if plan.Pivot() != q.Focus {
		return nil, 0, fmt.Errorf("bench: %s pivots on %s, not its focus %s", q.Name, plan.Pivot(), q.Focus)
	}
	start := time.Now()
	searchers := make([]*astar.Searcher, plan.Subqueries())
	for i := range searchers {
		if searchers[i], err = env.Engine.Searcher(plan, i); err != nil {
			return nil, 0, err
		}
	}
	res := tbq.Run(ctx, searchers, k, cfg)
	elapsed := time.Since(start)
	answers := make([]string, len(res.Finals))
	for i, f := range res.Finals {
		answers[i] = env.Engine.Graph().NodeName(f.Pivot)
	}
	return answers, elapsed, nil
}

// measurePerMatch measures Algorithm 3's t on the workload: every query's
// sub-queries are collected to exhaustion, then the wall time of the TA
// assembly of those sets at k is divided by the matches they hold.
func measurePerMatch(ctx context.Context, env *Env, queries []datagen.GenQuery, k int) (time.Duration, error) {
	var spent time.Duration
	matches := 0
	for _, q := range queries {
		plan, err := env.Engine.Compile(q.Graph, env.SearchOptions(k))
		if err != nil || !plan.Compiled() {
			continue
		}
		est := tbq.NewEstimator(ctx, tbq.Config{Bound: time.Hour})
		streams := make([]ta.Stream, plan.Subqueries())
		for i := range streams {
			sr, err := env.Engine.Searcher(plan, i)
			if err != nil {
				return 0, err
			}
			set, _ := tbq.Collect(sr, est)
			streams[i] = &ta.SliceStream{Matches: tbq.Sorted(set)}
			matches += len(set)
		}
		start := time.Now()
		ta.Assemble(streams, k)
		spent += time.Since(start)
	}
	if matches == 0 {
		return 0, fmt.Errorf("bench: the Fig. 15 workload collects no matches")
	}
	return spent / time.Duration(matches), nil
}

// --- E5: Table V — effect of the pivot node -----------------------------------

// runTable5 evaluates the first complex query under every candidate pivot
// (the paper's Table V compares pivot v1 and v2 on the Fig. 16 query) at
// k ∈ {⅓, ⅔, 1, 2}·|truth|, mirroring the paper's 200..1200 against 596
// ground-truth answers.
func runTable5(ctx context.Context, p Params) (*Artifact, error) {
	env, err := p.env(datagen.DBpediaLike)
	if err != nil {
		return nil, err
	}
	if len(env.Dataset.Complex) == 0 {
		return nil, fmt.Errorf("bench: dataset has no complex queries")
	}
	q := env.Dataset.Complex[0]
	n := len(q.Truth)
	art := env.artifact("table5")
	section := "Table V: pivot comparison on " + q.Name
pivots:
	for _, pivot := range q.Graph.Targets() {
		var rows []Row
		for _, k := range []int{max(1, n/3), max(1, 2*n/3), n, n * 2} {
			opts := env.SearchOptions(k)
			opts.PivotNode = pivot
			r, err := env.Engine.Search(ctx, q.Graph, opts)
			if err != nil {
				continue pivots // not a usable pivot for this query
			}
			rows = append(rows, Row{Section: section, Name: fmt.Sprintf("pivot %s k=%d", pivot, k),
				Values: prValues(metrics.Evaluate(r.EntitiesOf(q.Focus), q.Truth), ms(r.Elapsed))})
		}
		art.Rows = append(art.Rows, rows...)
	}
	return art, nil
}

// --- E6: Table VI — pivot selection strategy ----------------------------------

// runTable6 evaluates Simple/Medium/Complex workloads under the minCost
// and Random pivot strategies, with k = |truth| so that P = R, as in the
// paper. Simple queries have a single pivot: no Random values.
func runTable6(ctx context.Context, p Params) (*Artifact, error) {
	env, err := p.env(datagen.DBpediaLike)
	if err != nil {
		return nil, err
	}
	art := env.artifact("table6")
	const section = "Table VI: effect of pivot node selection (k = |validation set|, P = R)"
	classes := []struct {
		name    string
		queries []datagen.GenQuery
		subs    int
	}{
		{"Simple", env.Dataset.Simple, 1},
		{"Medium", env.Dataset.Medium, 2},
		{"Complex", env.Dataset.Complex, 3},
	}
	rng := rand.New(rand.NewSource(99))
	for _, cl := range classes {
		if len(cl.queries) == 0 {
			continue
		}
		var mcPR, mcMS, rdPR, rdMS float64
		for _, q := range cl.queries {
			opts := env.SearchOptions(len(q.Truth))
			r, err := env.Engine.Search(ctx, q.Graph, opts)
			if err != nil {
				continue
			}
			mcPR += metrics.Evaluate(r.EntitiesOf(q.Focus), q.Truth).Precision
			mcMS += ms(r.Elapsed)
			if cl.subs == 1 {
				continue
			}
			opts.Strategy = query.RandomPivot
			opts.Rng = rng
			r2, err := env.Engine.Search(ctx, q.Graph, opts)
			if err != nil {
				continue
			}
			rdPR += metrics.Evaluate(r2.EntitiesOf(q.Focus), q.Truth).Precision
			rdMS += ms(r2.Elapsed)
		}
		n := float64(len(cl.queries))
		values := map[string]float64{"mincost_pr": mcPR / n, "mincost_time_ms": mcMS / n}
		if cl.subs > 1 {
			values["random_pr"] = rdPR / n
			values["random_time_ms"] = rdMS / n
		}
		art.add(section, fmt.Sprintf("%s (%d sub-queries)", cl.name, cl.subs), values)
	}
	return art, nil
}

// --- E7: Table VII — simulated user study --------------------------------------

// runTable7 simulates the crowd-sourced study of Section VII-D on up to
// seven queries from each dataset: SGQ answers are scored against latent
// quality (validated answers = 1, others scaled by match score), pairs
// are judged by 10 noisy annotators, and the PCC between system ranks and
// annotator preferences is reported per query.
func runTable7(ctx context.Context, p Params) (*Artifact, error) {
	const queriesPerEnv = 7
	study := metrics.UserStudy{Annotators: 10, Pairs: 30, Noise: 0.1,
		Rng: rand.New(rand.NewSource(2020))}
	var art *Artifact
	for _, profile := range []func(float64) datagen.Profile{datagen.DBpediaLike, datagen.FreebaseLike, datagen.YAGO2Like} {
		env, err := p.env(profile)
		if err != nil {
			return nil, err
		}
		if art == nil {
			art = env.artifact("table7")
			art.Dataset = "dbpedia-like + freebase-like + yago2-like"
		}
		// The paper "selected 20 queries for which the answers have
		// multiple schemas": single-schema queries produce uniform answer
		// quality and carry no ranking signal for annotators.
		var qs []datagen.GenQuery
		for _, q := range env.Dataset.Simple {
			if q.SchemaCount > 1 && len(qs) < queriesPerEnv {
				qs = append(qs, q)
			}
		}
		for i, q := range qs {
			r, err := env.Engine.Search(ctx, q.Graph, env.SearchOptions(len(q.Truth)))
			if err != nil || len(r.Answers) < 4 {
				continue
			}
			truth := make(map[string]bool, len(q.Truth))
			for _, tname := range q.Truth {
				truth[tname] = true
			}
			// Latent answer quality: validated answers are worth more,
			// and within each group deeper/semantically weaker paths
			// (lower match score) are worth less — annotators perceive
			// both effects.
			maxScore := r.Answers[0].Score
			if maxScore <= 0 {
				maxScore = 1
			}
			quality := make([]float64, len(r.Answers))
			distinct := make(map[float64]bool)
			for j, a := range r.Answers {
				quality[j] = 0.4 * a.Score / maxScore
				if truth[a.Bindings[q.Focus]] {
					quality[j] += 0.6
				}
				distinct[quality[j]] = true
			}
			if len(distinct) < 2 {
				// All answers share one score group: no ranking signal to
				// correlate. The paper's manual query selection excludes
				// such queries; the harness does the same.
				continue
			}
			art.add("Table VII: simulated user study (PCC per query)",
				fmt.Sprintf("%s-%d", env.Cfg.Profile.Name, i+1),
				map[string]float64{"pcc": study.Run(quality)})
		}
	}
	return art, nil
}

// --- E8/E9: Figure 17 + Table VIII — robustness vs noise -----------------------

// runNoise perturbs a fraction (the noise ratio) of the simple workload
// with node noise (synonym/abbreviation swaps) or edge noise (predicate
// swapped with a top-10 similar predicate) and measures SGQ effectiveness
// and response time (Fig. 17 and Table VIII).
func runNoise(ctx context.Context, p Params) (*Artifact, error) {
	env, err := p.env(datagen.DBpediaLike)
	if err != nil {
		return nil, err
	}
	const k = 40
	art := env.artifact("noise")
	section := fmt.Sprintf("Figure 17 / Table VIII: robustness vs noise (k=%d)", k)
	for _, mode := range []string{"node", "edge"} {
		for _, ratio := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
			rng := rand.New(rand.NewSource(int64(1000 + ratio*100)))
			noisy := func(q datagen.GenQuery) *query.Graph {
				switch {
				case rng.Float64() >= ratio:
					return q.Graph
				case mode == "node":
					return datagen.AddNodeNoise(q.Graph, env.Dataset.Library, rng)
				default:
					return datagen.AddEdgeNoise(q.Graph, env.Dataset.Graph, env.Space, rng)
				}
			}
			pr, timeMS, _ := simpleSweep(ctx, env, noisy, env.SearchOptions(k))
			art.add(section, fmt.Sprintf("%s noise %.0f%%", mode, ratio*100), prValues(pr, timeMS))
		}
	}
	return art, nil
}

// --- E10: Table IX — scalability ------------------------------------------------

// runTable9 builds nested-scale dbpedia-like environments at 0.4, 0.7
// and 1.0 of the requested scale (the paper extracts subgraphs
// G1 ⊂ G2 ⊂ G) and reports SGQ online time per k plus the offline
// embedding cost.
func runTable9(_ context.Context, p Params) (*Artifact, error) {
	var env *Env
	var rows []Row
	for _, f := range []float64{0.4, 0.7, 1.0} {
		var err error
		if env, err = Cached(Config{Profile: datagen.DBpediaLike(p.Scale * f), Embed: p.Embed}); err != nil {
			return nil, err
		}
		values := map[string]float64{
			"nodes":    float64(env.Dataset.Graph.NumNodes()),
			"edges":    float64(env.Dataset.Graph.NumEdges()),
			"embed_ms": ms(env.TrainTime),
			"embed_mb": float64(env.ModelBytes) / (1 << 20),
		}
		sgq := env.SGQ()
		for _, k := range []int{10, 20, 40} {
			var total time.Duration
			for _, q := range env.Dataset.Simple {
				_, elapsed := sgq.Run(q, k)
				total += elapsed
			}
			values[fmt.Sprintf("sgq_k%d_ms", k)] = ms(total) / float64(len(env.Dataset.Simple))
		}
		rows = append(rows, Row{Section: "Table IX: scalability (online SGQ vs offline embedding)",
			Name: fmt.Sprintf("G(%.1fx)", f), Values: values})
	}
	art := env.artifact("table9") // header describes the full-scale graph
	art.Rows = rows
	return art, nil
}

// --- E11: Table X — parameter sensitivity ---------------------------------------

// runTable10 reproduces the sensitivity analysis: vary n̂ with τ fixed,
// then vary τ with n̂ = 4. The τ range is the scaled equivalent of the
// paper's 0.6-0.9 (see Config.Tau).
func runTable10(ctx context.Context, p Params) (*Artifact, error) {
	env, err := p.env(datagen.DBpediaLike)
	if err != nil {
		return nil, err
	}
	const k = 40
	art := env.artifact("table10")
	section := fmt.Sprintf("Table X: effect of n̂ and τ (k=%d)", k)
	sweep := func(name string, tau float64, nhat int) {
		opts := env.SearchOptions(k)
		opts.Tau, opts.MaxHops = tau, nhat
		pr, timeMS, _ := simpleSweep(ctx, env, asIs, opts)
		art.add(section, name, prValues(pr, timeMS))
	}
	for _, nhat := range []int{2, 3, 4, 5} {
		sweep(fmt.Sprintf("n̂=%d (τ=%.2f)", nhat, env.Cfg.Tau), env.Cfg.Tau, nhat)
	}
	for _, tau := range []float64{0.5, 0.6, 0.7, 0.8} {
		sweep(fmt.Sprintf("τ=%.2f (n̂=4)", tau), tau, 4)
	}
	return art, nil
}

// --- E12: Ablation — the design choices of Section V -----------------------------

// runAblation compares the full A* semantic search against the
// uninformed estimate (m(u) = 1) and the paper's visited-set pruning over
// the simple workload.
func runAblation(ctx context.Context, p Params) (*Artifact, error) {
	env, err := p.env(datagen.DBpediaLike)
	if err != nil {
		return nil, err
	}
	const k = 40
	art := env.artifact("ablation")
	section := fmt.Sprintf("Ablation: search variants (k=%d)", k)
	variants := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"A* semantic search (default)", func(o *core.Options) {}},
		{"uninformed (no m(u) estimate)", func(o *core.Options) { o.NoHeuristic = true }},
		{"visited-set pruning (paper Alg. 1)", func(o *core.Options) { o.PruneVisited = true }},
	}
	for _, v := range variants {
		opts := env.SearchOptions(k)
		v.mutate(&opts)
		pr, timeMS, popped := simpleSweep(ctx, env, asIs, opts)
		values := prValues(pr, timeMS)
		values["states_popped"] = float64(popped)
		art.add(section, v.name, values)
	}
	return art, nil
}
