// Command kgsearch answers query graphs over a knowledge graph with the
// semantic-guided (SGQ) or time-bounded (TBQ) search, either locally or
// against a running semkgd server.
//
// Single-edge queries come from flags:
//
//	kgsearch -graph g.tsv -model m.bin -type Automobile -entity Germany -pred assembly -k 10
//
// General query graphs come from a JSON file (the api.Query wire shape,
// the same document semkgd accepts; unknown fields are rejected):
//
//	kgsearch -graph g.tsv -model m.bin -queryfile q.json -k 10 -bound 50ms
//
// Client mode sends the query to a semkgd server instead of loading the
// graph locally, streaming NDJSON events and printing provisional top-k
// updates as they arrive:
//
//	kgsearch -server http://localhost:8375 -queryfile q.json -bound 50ms
//
// Keyword mode skips the query document entirely: bare keywords are
// assembled into candidate query graphs, executed, and blended into one
// ranking. Works locally and against a server:
//
//	kgsearch -graph g.tsv -model m.bin -keywords "automobile assembly germany"
//	kgsearch -server http://localhost:8375 -keywords "design engine italy" -candidates 3
//
// Batch mode answers a whole group of queries in one call from an
// api.BatchRequest JSON file (the same document POST /v1/batch accepts),
// sharing compilation and overlapping sub-query searches across the
// group:
//
//	kgsearch -graph g.tsv -model m.bin -batchfile b.json
//	kgsearch -server http://localhost:8375 -batchfile b.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"semkg/internal/api"
	"semkg/internal/core"
	"semkg/internal/embed"
	"semkg/internal/keyword"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/serve"
)

func main() {
	graphFile := flag.String("graph", "", "triple file (local mode)")
	modelFile := flag.String("model", "", "embedding model file (local mode)")
	server := flag.String("server", "", "semkgd base URL (client mode, e.g. http://localhost:8375)")
	queryFile := flag.String("queryfile", "", "JSON query graph file")
	batchFile := flag.String("batchfile", "", "JSON batch request file (a group of queries answered in one call)")
	keywords := flag.String("keywords", "", "bare keyword query (keyword mode; replaces -queryfile/-type/-entity/-pred)")
	candidates := flag.Int("candidates", 0, "max assembled candidate queries to execute (keyword mode; 0 = default)")
	focusType := flag.String("type", "", "focus entity type (single-edge query)")
	entity := flag.String("entity", "", "anchor entity name (single-edge query)")
	pred := flag.String("pred", "", "query predicate (single-edge query)")
	k := flag.Int("k", 10, "number of answers")
	tau := flag.Float64("tau", 0.6, "pss threshold τ")
	maxHops := flag.Int("nhat", 4, "desired path length n̂")
	bound := flag.Duration("bound", 0, "response time bound (0 = exact SGQ)")
	retries := flag.Int("retries", 4, "max retries when the server sheds with 429 (client mode; 0 = fail immediately)")
	flag.Parse()

	opts := core.Options{K: *k, Tau: *tau, MaxHops: *maxHops, TimeBound: *bound}

	if *batchFile != "" {
		if *server != "" {
			if err := remoteBatch(*server, *batchFile, opts, defaultRetryPolicy(*retries)); err != nil {
				fail(err)
			}
			return
		}
		if *graphFile == "" || *modelFile == "" {
			fmt.Fprintln(os.Stderr, "kgsearch: -batchfile needs -graph and -model (or -server)")
			os.Exit(2)
		}
		if err := localBatch(*graphFile, *modelFile, *batchFile, opts); err != nil {
			fail(err)
		}
		return
	}

	if *keywords != "" {
		if *server != "" {
			if err := remoteKeyword(*server, *keywords, opts, *candidates, defaultRetryPolicy(*retries)); err != nil {
				fail(err)
			}
			return
		}
		if *graphFile == "" || *modelFile == "" {
			fmt.Fprintln(os.Stderr, "kgsearch: -keywords needs -graph and -model (or -server)")
			os.Exit(2)
		}
		if err := localKeyword(*graphFile, *modelFile, *keywords, opts, *candidates); err != nil {
			fail(err)
		}
		return
	}

	q, err := buildQuery(*queryFile, *focusType, *entity, *pred)
	if err != nil {
		fail(err)
	}

	if *server != "" {
		if err := remoteSearch(*server, q, opts, defaultRetryPolicy(*retries)); err != nil {
			fail(err)
		}
		return
	}

	if *graphFile == "" || *modelFile == "" {
		fmt.Fprintln(os.Stderr, "kgsearch: -graph and -model are required (or use -server)")
		os.Exit(2)
	}
	engine, err := localEngine(*graphFile, *modelFile)
	if err != nil {
		fail(err)
	}
	res, err := engine.Search(context.Background(), q, opts)
	if err != nil {
		fail(err)
	}
	printResult(api.ResultFrom(res), *bound)
}

// buildQuery assembles the query graph from -queryfile (the strict api
// wire codec — the identical document semkgd accepts) or the single-edge
// flags.
func buildQuery(queryFile, focusType, entity, pred string) (*query.Graph, error) {
	switch {
	case queryFile != "":
		data, err := os.ReadFile(queryFile)
		if err != nil {
			return nil, err
		}
		return api.DecodeQuery(data)
	case focusType != "" && entity != "" && pred != "":
		return &query.Graph{
			Nodes: []query.Node{
				{ID: "v1", Type: focusType},
				{ID: "v2", Name: entity},
			},
			Edges: []query.Edge{{From: "v1", To: "v2", Predicate: pred}},
		}, nil
	default:
		fmt.Fprintln(os.Stderr, "kgsearch: provide -queryfile or -type/-entity/-pred")
		os.Exit(2)
		panic("unreachable")
	}
}

// remoteSearch streams the query through semkgd's /v1/stream endpoint,
// narrating progress to stderr and printing the final result like the
// local mode. A 429 shed is retried with capped exponential backoff,
// honoring the server's Retry-After floor; each attempt posts a fresh
// body (the previous attempt consumed its reader).
func remoteSearch(base string, q *query.Graph, opts core.Options, policy retryPolicy) error {
	body, err := json.Marshal(api.SearchRequest{
		Query:   api.QueryFrom(q),
		Options: api.OptionsFrom(opts),
	})
	if err != nil {
		return err
	}
	if policy.notify == nil {
		policy.notify = func(attempt int, wait time.Duration, status string) {
			fmt.Fprintln(os.Stderr, describeShed(attempt, wait, status))
		}
	}
	resp, err := policy.do(func() (*http.Response, error) {
		return http.Post(base+"/v1/stream", "application/json", bytes.NewReader(body))
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("server: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var final *api.Result
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, err := api.DecodeEvent(line)
		if err != nil {
			return err
		}
		switch ev.Event {
		case api.EventPhase:
			fmt.Fprintf(os.Stderr, "· phase %s\n", ev.Phase)
		case api.EventTopK:
			fmt.Fprintf(os.Stderr, "· provisional top-k: %d answer(s), L_k=%.3f U_max=%.3f (round %d)\n",
				len(ev.Answers), ev.LowerK, ev.UpperMax, ev.Round)
		case api.EventResult:
			final = ev.Result
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if final == nil {
		return fmt.Errorf("stream ended without a result event")
	}
	printResult(*final, opts.TimeBound)
	return nil
}

// localKeyword runs keyword search entirely in process: the engine is
// wrapped in a single-replica serving layer so the keyword front end gets
// the same caching/admission path the server uses.
func localKeyword(graphFile, modelFile, input string, opts core.Options, candidates int) error {
	engine, err := localEngine(graphFile, modelFile)
	if err != nil {
		return err
	}
	fe := keyword.New(serve.New(engine, serve.Config{}))
	res, err := fe.Search(context.Background(), input, opts, candidates)
	if err != nil {
		return err
	}
	printKeyword(keyword.WireResult(res))
	return nil
}

// remoteKeyword streams bare keywords through semkgd's /v1/keyword
// endpoint, narrating assembly and per-candidate progress to stderr and
// printing the blended result. Sheds retry like remoteSearch.
func remoteKeyword(base, input string, opts core.Options, candidates int, policy retryPolicy) error {
	body, err := json.Marshal(api.KeywordRequest{
		Keywords:      input,
		Options:       api.OptionsFrom(opts),
		MaxCandidates: candidates,
	})
	if err != nil {
		return err
	}
	if policy.notify == nil {
		policy.notify = func(attempt int, wait time.Duration, status string) {
			fmt.Fprintln(os.Stderr, describeShed(attempt, wait, status))
		}
	}
	resp, err := policy.do(func() (*http.Response, error) {
		return http.Post(base+"/v1/keyword?stream=1", "application/json", bytes.NewReader(body))
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("server: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var final *api.KeywordResult
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, err := api.DecodeKeywordEvent(line)
		if err != nil {
			return err
		}
		switch ev.Event {
		case api.KeywordEventAssembly:
			fmt.Fprintf(os.Stderr, "· assembled %d candidate(s) from %v, executing %d\n",
				len(ev.Candidates), ev.Keywords, ev.Executed)
		case api.KeywordEventEngine:
			if ev.Inner != nil && ev.Inner.Event == api.EventTopK {
				fmt.Fprintf(os.Stderr, "· candidate %d provisional top-k: %d answer(s)\n",
					*ev.Candidate, len(ev.Inner.Answers))
			}
		case api.KeywordEventResult:
			final = ev.Result
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if final == nil {
		return fmt.Errorf("stream ended without a result event")
	}
	printKeyword(*final)
	return nil
}

func printKeyword(res api.KeywordResult) {
	fmt.Printf("keyword search answered in %s — %d candidate(s), %d executed, %d answer(s)\n",
		time.Duration(res.Elapsed).Round(time.Microsecond),
		len(res.Candidates), res.Executed, len(res.Answers))
	if len(res.Unmatched) > 0 {
		fmt.Printf("unmatched keywords: %v\n", res.Unmatched)
	}
	for i, c := range res.Candidates {
		marker := " "
		if i < res.Executed {
			marker = "*"
		}
		fmt.Printf("%s c%d score=%.3f  %s\n", marker, i, c.Score, c.Explain)
	}
	for i, a := range res.Answers {
		fmt.Printf("%2d. %-24s blended=%.3f score=%.3f (candidate %d)\n",
			i+1, a.Entity, a.Blended, a.Score, a.Candidate)
	}
}

func printResult(res api.Result, bound time.Duration) {
	mode := "SGQ (exact)"
	if bound > 0 {
		mode = fmt.Sprintf("TBQ (bound %s, approximate=%v)", bound, res.Approximate)
	}
	fmt.Printf("%s answered in %s — %d answer(s)\n", mode,
		time.Duration(res.Elapsed).Round(time.Microsecond), len(res.Answers))
	for i, a := range res.Answers {
		fmt.Printf("%2d. %-24s score=%.3f\n", i+1, a.Entity, a.Score)
		for _, p := range a.Parts {
			fmt.Printf("      pss=%.3f:", p.PSS)
			for _, s := range p.Steps {
				fmt.Printf(" %s-[%s]->%s", s.From, s.Predicate, s.To)
			}
			fmt.Println()
		}
	}
}

// localEngine loads the graph and the model and builds the engine the way
// semkgd does: core.BuildEngine pads predicates the model never saw, so a
// graph that grew after training (a semkgd -save-snapshot) still loads.
func localEngine(graphFile, modelFile string) (*core.Engine, error) {
	return core.BuildEngine(loadGraph(graphFile), loadModel(modelFile), nil)
}

func loadGraph(path string) *kg.Graph {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	// Either storage format works: TSV triples or a binary snapshot
	// (kggen -snapshot / semkgd -save-snapshot), sniffed by magic.
	g, err := kg.ReadGraph(f)
	if err != nil {
		fail(err)
	}
	return g
}

func loadModel(path string) *embed.Model {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	m, err := embed.ReadModel(f)
	if err != nil {
		fail(err)
	}
	return m
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "kgsearch: %v\n", err)
	os.Exit(1)
}
