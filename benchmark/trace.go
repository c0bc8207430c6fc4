package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"semkg/internal/api"
	"semkg/internal/astar"
	"semkg/internal/core"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/semgraph"
	"semkg/internal/ta"
	"semkg/internal/transform"
)

// The traced run measures layers from outside only: it times calls into
// each module's exported functions and reads /debug/vars. It re-executes
// the workload's requests as a hand-assembled pipeline over those
// functions (Compile → one timed match stream per sub-query → TA
// assembly), which must return the same top-k as Engine.SearchPlan. Spans
// inside the program are a later change (ROADMAP item 4).

// span is one timed call. Parent is the index of the enclosing span in
// the run's span list (-1 for a request's root); spans of one request
// share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory; they are written once, at exit, to -out.
// The traced run has one client, so there is no locking.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// timedStream wraps one sub-query's match stream: every pull is a span
// under the assembly, and busy is their sum, so the assembly's self time
// is its own duration minus the time inside its streams.
type timedStream struct {
	inner  ta.Stream
	tr     *tracer
	parent int
	req    int
	busy   time.Duration
}

func (s *timedStream) Next() (astar.Match, bool) {
	i := s.tr.begin("astar.next", s.parent, s.req)
	m, ok := s.inner.Next()
	s.busy += s.tr.end(i)
	return m, ok
}

// memoEstimator is the engine's Eq. 1 cost estimator, rebuilt from public
// parts so decomposition can be timed on its own.
type memoEstimator struct {
	memo *transform.Memo
	g    *kg.Graph
}

func (m memoEstimator) AnchorCount(name, typeName string) int {
	return len(m.memo.MatchNode(name, typeName))
}
func (m memoEstimator) AvgDegree() float64 { return m.g.AvgDegree() }

// layerSums accumulates per-request layer measurements; means are taken
// at the end. Means, not medians: the budget must add up, and medians of
// parts do not sum to the median of the whole.
type layerSums struct {
	n int

	match, decompose, rows, weighter time.Duration
	candidates, queryNodes           int

	compile, searchPlan, firstTopK time.Duration
	byClass                        [4]time.Duration
	classN                         [4]int
	subqueries                     int
	allocBytes                     uint64

	traced, astarNext, taSelf       time.Duration
	popped, pushed, pruned, emitted int
	accesses, rounds, kSum          int

	tbqN, tbqApprox, tbqCollected int
	tbqSearch, tbqAssemble        time.Duration
	tbqOvershoot                  []float64

	decodeReq, encodeRes time.Duration
	responseBytes        int
}

// tracedLimit bounds the requests a traced run replays on the large
// world; the schema workloads replay exactly one pass. A fixed count, not
// a time budget, so the A* and TA counts repeat exactly from run to run.
const tracedLimit = 1000

func (e *runEnv) runTraced(w workload, seed int64, seconds float64) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Trace: true, Seconds: seconds, Short: w.short, Valid: true, Info: map[string]float64{}}
	vals := map[string]metricValue{}
	set := func(name string, v float64) { vals[name] = metricValue{Value: v} }

	if w.http {
		if _, err := e.semkgdBin(); err != nil {
			return nil, err
		}
	}
	sys, _, err := e.setUp(w)
	if err != nil {
		return nil, err
	}
	defer sys.tearDown()
	in, g, err := sys.prepare(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	res.InputHash = in.hash
	eng := sys.eng

	reqs := in.warm // schema: one pass of every (query, K)
	if w.http {
		if reqs = in.open; w.rate == 0 {
			reqs = in.closed
		}
		limit := tracedLimit
		if w.short {
			limit = 100
		}
		if len(reqs) > limit {
			reqs = reqs[:limit]
		}
	}
	attempted, failed := 0, 0
	why := map[string]int{}

	// 1. The transport pass, untraced, one client: what a caller sees.
	t := sys.target()
	sys.warmUp(w, in, g)
	var v0, v1 serverVars
	var m0, m1 runtime.MemStats
	if sys.srv != nil {
		if v0, err = sys.srv.vars(); err != nil {
			return nil, err
		}
	} else {
		runtime.ReadMemStats(&m0)
	}
	pass := phase{t0: time.Now()}
	pass.samples, pass.wall = runClosed(t, reqs, 1, time.Hour)
	if sys.srv != nil {
		if v1, err = sys.srv.vars(); err != nil {
			return nil, err
		}
	} else {
		runtime.ReadMemStats(&m1)
	}
	var clientSum, elapsedSum time.Duration
	clientN := 0
	g.prefetch(reqs)
	for i := range pass.samples {
		s := &pass.samples[i]
		c := g.check(s, [2]int{})
		attempted++
		if !c.ok {
			failed++
			why[c.why]++
			continue
		}
		clientSum += s.latency()
		elapsedSum += c.elapsed
		clientN++
	}
	clientMs := msOf(clientSum) / float64(max(clientN, 1))

	// 2. The generator's own lateness and CPU, on a short open-loop phase
	// at the workload's rate.
	if w.rate > 0 {
		n := len(in.open)
		if n > len(reqs)*2 {
			n = len(reqs) * 2
		}
		cpu0, _ := procCPU(os.Getpid())
		start := time.Now()
		_, lag := runOpen(t, in.open[:n], in.due[:n], clients)
		wall := time.Since(start)
		cpu1, _ := procCPU(os.Getpid())
		set("loadgen.sched_lag_p95_ms", lagP95Ms(lag))
		set("loadgen.cpu_share", cpuShare(cpu1-cpu0, wall))
	} else {
		set("loadgen.sched_lag_p95_ms", 0)
		set("loadgen.cpu_share", 0)
	}

	// 3. The layer replays, in process.
	tr := &tracer{t0: time.Now()}
	var ls layerSums
	ctx := context.Background()
	results := make([]*core.Result, len(reqs))
	plans := make([]*core.Plan, len(reqs))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, r := range reqs {
		opts := r.exact()
		start := time.Now()
		plan, err := eng.Compile(r.q, opts)
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		compiled := time.Now()
		out, err := eng.SearchPlan(ctx, plan, opts)
		if err != nil {
			return nil, fmt.Errorf("search plan: %w", err)
		}
		done := time.Now()
		ls.n++
		ls.compile += compiled.Sub(start)
		ls.searchPlan += done.Sub(compiled)
		ls.byClass[r.class] += done.Sub(start)
		ls.classN[r.class]++
		ls.subqueries += plan.Subqueries()
		results[i], plans[i] = out, plan
	}
	runtime.ReadMemStats(&ms1)
	ls.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc

	// The hand-assembled pipeline, traced.
	for i, r := range reqs {
		opts := r.exact()
		root := tr.begin("request", -1, i)
		c := tr.begin("core.compile", root, i)
		plan, err := eng.Compile(r.q, opts)
		tr.end(c)
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		streams := make([]ta.Stream, plan.Subqueries())
		timed := make([]*timedStream, len(streams))
		shared := make([]*core.SharedSearch, len(streams))
		nw := tr.begin("core.new_subsearch", root, i)
		for j := range streams {
			if shared[j], err = eng.NewSubSearch(plan, j); err != nil {
				return nil, fmt.Errorf("sub-search: %w", err)
			}
		}
		tr.end(nw)
		a := tr.begin("ta.run", root, i)
		for j := range streams {
			timed[j] = &timedStream{inner: shared[j].Cursor(), tr: tr, parent: a, req: i}
			streams[j] = timed[j]
		}
		k := opts.Normalized().K
		asm := ta.NewAssembler(streams, k)
		finals := asm.Run(nil)
		run := tr.end(a)
		ls.traced += tr.end(root)
		var busy time.Duration
		for j := range timed {
			busy += timed[j].busy
			st := shared[j].SearchStats()
			ls.popped += st.Popped
			ls.pushed += st.Pushed
			ls.pruned += st.Pruned
			ls.emitted += st.Emitted
		}
		ls.astarNext += busy
		ls.taSelf += run - busy
		ls.accesses += asm.Stats().Accesses
		ls.rounds += asm.Stats().Rounds
		ls.kSum += k
		attempted++
		if !sameFinals(finals, results[i].Answers) {
			failed++
			why[fmt.Sprintf("hand-assembled pipeline differs from SearchPlan (key %d, k %d)", r.key, k)]++
		}
	}

	// First provisional top-k on the event stream (exact mode).
	for i, r := range reqs {
		opts := r.exact()
		start := time.Now()
		st, err := eng.StreamPlan(ctx, plans[i], opts)
		if err != nil {
			return nil, fmt.Errorf("stream plan: %w", err)
		}
		first := time.Duration(0)
		for ev := range st.Events() {
			if _, ok := ev.(core.TopKEvent); ok && first == 0 {
				first = time.Since(start)
			}
		}
		ls.firstTopK += first
	}

	// The time-bounded pipeline's phases, from the event timestamps.
	if w.bound > 0 {
		for _, r := range reqs {
			opts := r.opts
			opts.TimeBound = w.bound
			start := time.Now()
			st, err := eng.Stream(ctx, r.q, opts)
			if err != nil {
				return nil, fmt.Errorf("tbq stream: %w", err)
			}
			var assembleAt, end time.Duration
			for ev := range st.Events() {
				switch ev := ev.(type) {
				case core.PhaseEvent:
					if ev.Phase == core.PhaseAssemble {
						assembleAt = time.Since(start)
					}
				case core.ResultEvent:
					end = time.Since(start)
					if ev.Result.Approximate {
						ls.tbqApprox++
					}
					for _, c := range ev.Result.Collected {
						ls.tbqCollected += c
					}
				}
			}
			if assembleAt == 0 {
				assembleAt = end // no assembly phase: a query node matched nothing
			}
			ls.tbqN++
			ls.tbqSearch += assembleAt
			ls.tbqAssemble += end - assembleAt
			ls.tbqOvershoot = append(ls.tbqOvershoot, max(0, msOf(end-w.bound)))
		}
	}

	// Compile's parts, each timed on its own through the public surface.
	for _, r := range reqs {
		memo := eng.Matcher().Memo()
		start := time.Now()
		for _, n := range r.q.Nodes {
			ls.candidates += len(memo.MatchNode(n.Name, n.Type))
			ls.queryNodes++
		}
		ls.match += time.Since(start)

		start = time.Now()
		if _, err := query.Decompose(r.q, query.Options{Estimator: memoEstimator{memo, eng.Graph()}, MaxHops: r.opts.MaxHops}); err != nil {
			return nil, fmt.Errorf("decompose: %w", err)
		}
		ls.decompose += time.Since(start)

		preds := make([]string, len(r.q.Edges))
		for j, ed := range r.q.Edges {
			preds[j] = ed.Predicate
		}
		start = time.Now()
		if _, err := eng.Rows().Rows(preds); err != nil {
			return nil, fmt.Errorf("weight rows: %w", err)
		}
		ls.rows += time.Since(start)
		start = time.Now()
		if _, err := semgraph.NewWeighterCached(eng.Rows(), preds); err != nil {
			return nil, fmt.Errorf("weighter: %w", err)
		}
		ls.weighter += time.Since(start)
	}

	// The wire codecs, on the requests and the results just computed.
	for i, r := range reqs {
		body := r.body
		if body == nil {
			body = r.encode()
		}
		start := time.Now()
		if _, _, err := api.DecodeSearchRequest(bytes.NewReader(body)); err != nil {
			return nil, fmt.Errorf("decoding a generated request: %w", err)
		}
		ls.decodeReq += time.Since(start)
		start = time.Now()
		doc, err := json.Marshal(api.ResultFrom(results[i]))
		if err != nil {
			return nil, err
		}
		ls.encodeRes += time.Since(start)
		ls.responseBytes += len(doc)
	}

	// The serving layer in process: first sight of a request is a miss,
	// a repeat is a result-cache hit.
	inproc := sys.serveLayer()
	var hit, miss, missCore time.Duration
	hitN, missN := 0, 0
	seen := map[refKey]bool{}
	for pass := 0; pass < 2; pass++ {
		for _, r := range reqs {
			opts := r.exact()
			start := time.Now()
			if _, err := inproc.Search(ctx, r.q, opts); err != nil {
				return nil, fmt.Errorf("serve search: %w", err)
			}
			d := time.Since(start)
			k := refKey{0, r.key, r.opts.K}
			if seen[k] {
				hit += d
				hitN++
			} else {
				seen[k] = true
				miss += d
				missN++
				// The same request's compile + search, re-timed beside
				// the miss, so the difference is the layer's own cost.
				start = time.Now()
				plan, _ := eng.Compile(r.q, opts)
				_, _ = eng.SearchPlan(ctx, plan, opts)
				missCore += time.Since(start)
			}
		}
	}

	// Storage: snapshot size and load, delta commit, Apply.
	var snap bytes.Buffer
	if err := kg.WriteSnapshot(&snap, sys.wd.g); err != nil {
		return nil, err
	}
	var loads []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := kg.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
			return nil, err
		}
		loads = append(loads, msOf(time.Since(start)))
	}
	log := &ingestLog{}
	for _, batch := range in.batches[:min(len(in.batches), tracedCommits)] {
		log.commit(nil, inproc, batch)
		if err := g.apply(batch); err != nil {
			return nil, err
		}
	}
	var commits []float64
	for _, c := range g.commitTimes {
		commits = append(commits, msOf(c))
	}
	attempted += len(log.lat)
	failed += len(log.failed)
	for _, f := range log.failed {
		why[f]++
	}

	// Metrics.
	n := float64(max(ls.n, 1))
	per := func(d time.Duration) float64 { return msOf(d) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	set("transform.match_ms", per(ls.match))
	set("transform.candidates_per_node", ratio(float64(ls.candidates), float64(ls.queryNodes)))
	set("query.decompose_ms", per(ls.decompose))
	set("query.subqueries", float64(ls.subqueries)/n)
	set("semgraph.rows_ms", per(ls.rows))
	set("semgraph.weighter_ms", per(ls.weighter))
	set("core.compile_ms", per(ls.compile))
	set("core.search_plan_ms", per(ls.searchPlan))
	set("core.residual_ms", per(ls.searchPlan-ls.astarNext-ls.taSelf))
	set("core.first_topk_ms", per(ls.firstTopK))
	set("core.alloc_mb_per_query", float64(ls.allocBytes)/(1<<20)/n)
	for class, name := range map[int]string{1: "simple", 2: "medium", 3: "complex"} {
		set("core.search_ms."+name, ratio(msOf(ls.byClass[class]), float64(ls.classN[class])))
	}
	set("astar.next_ms", per(ls.astarNext))
	set("astar.popped", float64(ls.popped)/n)
	set("astar.pushed", float64(ls.pushed)/n)
	set("astar.pruned", float64(ls.pruned)/n)
	set("astar.emitted", float64(ls.emitted)/n)
	set("astar.emitted_per_popped", ratio(float64(ls.emitted), float64(ls.popped)))
	set("ta.self_ms", per(ls.taSelf))
	set("ta.accesses", float64(ls.accesses)/n)
	set("ta.rounds", float64(ls.rounds)/n)
	set("ta.k_per_access", ratio(float64(ls.kSum), float64(ls.accesses)))
	tn := float64(max(ls.tbqN, 1))
	set("tbq.search_ms", msOf(ls.tbqSearch)/tn)
	set("tbq.assemble_ms", msOf(ls.tbqAssemble)/tn)
	set("tbq.collected", float64(ls.tbqCollected)/tn)
	set("tbq.approx_share", float64(ls.tbqApprox)/tn)
	set("tbq.overshoot_p95_ms", quantile(ls.tbqOvershoot, 0.95))
	set("serve.search_hit_ms", ratio(msOf(hit), float64(hitN)))
	set("serve.search_miss_ms", ratio(msOf(miss), float64(missN)))
	set("serve.overhead_ms", ratio(msOf(miss-missCore), float64(missN)))
	set("serve.apply_ms", median(log.lat))
	set("kg.snapshot_load_ms", median(loads))
	set("kg.snapshot_mb", float64(snap.Len())/(1<<20))
	set("kg.delta_commit_ms", median(commits))
	set("embed.train_ms", msOf(sys.wd.trainTime))
	set("semkgd.start_ms", msOf(sys.startTime))
	set("api.decode_req_ms", per(ls.decodeReq))
	set("api.encode_res_ms", per(ls.encodeRes))
	set("api.response_kb", float64(ls.responseBytes)/1024/n)
	set("trace.overhead_ratio", ratio(msOf(ls.traced), msOf(ls.compile+ls.searchPlan)))

	// The budget: independently measured parts that should add up to what
	// the one-client caller saw. The pipeline's parts are paid on a
	// result-cache miss only; a hit costs the serving layer's lookup.
	passS := pass.wall.Seconds()
	pipeline := per(ls.compile) + per(ls.astarNext) + per(ls.taSelf) + vals["core.residual_ms"].Value
	parts := pipeline
	if sys.srv != nil {
		var rtt time.Duration
		const pings = 200
		for i := 0; i < pings; i++ {
			start := time.Now()
			if _, err := sys.srv.get("/healthz"); err != nil {
				return nil, err
			}
			rtt += time.Since(start)
		}
		set("semkgd.http_rtt_ms", msOf(rtt)/pings)
		set("semkgd.http_overhead_ms", msOf(clientSum-elapsedSum)/float64(max(clientN, 1)))
		d := func(a, b uint64) float64 { return float64(b - a) }
		hitRatio := func(h0, h1, m0, m1 uint64) float64 { return ratio(d(h0, h1), d(h0, h1)+d(m0, m1)) }
		sv0, sv1 := v0.Serve, v1.Serve
		set("serve.result_hit_ratio", hitRatio(sv0.ResultHits, sv1.ResultHits, sv0.ResultMisses, sv1.ResultMisses))
		set("serve.plan_hit_ratio", hitRatio(sv0.PlanHits, sv1.PlanHits, sv0.PlanMisses, sv1.PlanMisses))
		set("serve.sub_hit_ratio", hitRatio(sv0.SubHits, sv1.SubHits, sv0.SubMisses, sv1.SubMisses))
		set("serve.flight_shared", d(sv0.FlightShared, sv1.FlightShared))
		set("serve.pipeline_runs", d(sv0.PipelineRuns, sv1.PipelineRuns))
		set("serve.queued", d(sv0.Queued, sv1.Queued))
		set("serve.rejected", d(sv0.RejectedQueue+sv0.RejectedDeadline, sv1.RejectedQueue+sv1.RejectedDeadline))
		set("serve.estimated_run_ms", float64(sv1.EstimatedRun)/1e6)
		set("runtime.gc_pause_ms_per_s", d(v0.Mem.PauseTotalNs, v1.Mem.PauseTotalNs)/1e6/passS)
		set("runtime.num_gc_per_s", float64(v1.Mem.NumGC-v0.Mem.NumGC)/passS)
		set("runtime.heap_inuse_mb", float64(v1.Mem.HeapInuse)/(1<<20))
		set("runtime.alloc_mb_per_req", d(v0.Mem.TotalAlloc, v1.Mem.TotalAlloc)/(1<<20)/float64(max(len(pass.samples), 1)))
		hits := vals["serve.result_hit_ratio"].Value
		parts = (1-hits)*(pipeline+vals["serve.overhead_ms"].Value) + hits*vals["serve.search_hit_ms"].Value +
			vals["api.decode_req_ms"].Value + vals["api.encode_res_ms"].Value + vals["semkgd.http_rtt_ms"].Value
	} else {
		for _, name := range []string{"semkgd.http_rtt_ms", "semkgd.http_overhead_ms", "serve.result_hit_ratio",
			"serve.plan_hit_ratio", "serve.sub_hit_ratio", "serve.flight_shared", "serve.pipeline_runs",
			"serve.queued", "serve.rejected", "serve.estimated_run_ms"} {
			set(name, 0) // no server and no serving layer in front of the engine
		}
		set("runtime.gc_pause_ms_per_s", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/passS)
		set("runtime.num_gc_per_s", float64(m1.NumGC-m0.NumGC)/passS)
		set("runtime.heap_inuse_mb", float64(m1.HeapInuse)/(1<<20))
		set("runtime.alloc_mb_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(max(len(pass.samples), 1)))
	}
	set("budget.client_ms", clientMs)
	set("budget.coverage", ratio(parts, clientMs))
	set("budget.unattributed_ms", clientMs-parts)

	res.Attempted, res.Failed, res.Correct = attempted, failed, failed == 0
	res.Notes = notesOf(why)
	res.Info["traced_requests"] = float64(len(reqs))
	res.Info["spans"] = float64(len(tr.spans))
	res.Spans = tr.spans
	if res.Metrics, err = selectMetrics(e.spec.PerLayer, vals); err != nil {
		return nil, err
	}
	return res, nil
}

// sameFinals compares the hand-assembled top-k with SearchPlan's answers:
// same pivots, same scores, same order.
func sameFinals(finals []ta.Final, answers []core.Answer) bool {
	if len(finals) != len(answers) {
		return false
	}
	for i := range finals {
		if finals[i].Pivot != answers[i].Pivot || finals[i].Score != answers[i].Score {
			return false
		}
	}
	return true
}
