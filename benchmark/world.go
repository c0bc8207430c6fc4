package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"semkg/internal/api"
	"semkg/internal/core"
	"semkg/internal/datagen"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/transform"
)

// world is the generated dataset a workload runs on: the graph, the
// embedding model the engine derives its predicate space from, and the
// query material. The world is a constant of the workload — the seed
// picks the request order, arrival times and ingest batches, never the
// world, so every seed measures the same amount of work and the spread
// across seeds is the host's noise, not the inputs'.
type world struct {
	g     *kg.Graph
	model *embed.Model
	lib   *transform.Library

	// queries is the schema world's ground-truth workload (nil on the
	// large world, whose queries are generated per request).
	queries []datagen.GenQuery
	// focusTypes and focusPreds are the large world's query vocabulary.
	focusTypes, focusPreds []string

	trainTime time.Duration
}

func buildWorld(w workload) (*world, error) {
	if w.http {
		return buildLargeWorld(w.nodes)
	}
	return buildSchemaWorld(w.schemaScale, w.epochs)
}

// buildSchemaWorld generates datagen.DBpediaLike(scale) and trains its
// TransE space: the paper's own experimental setting.
func buildSchemaWorld(scale float64, epochs int) (*world, error) {
	ds := datagen.Generate(datagen.DBpediaLike(scale))
	wd := &world{g: ds.Graph, lib: ds.Library}
	wd.queries = append(wd.queries, ds.Simple...)
	wd.queries = append(wd.queries, ds.Medium...)
	wd.queries = append(wd.queries, ds.Complex...)
	start := time.Now()
	model, err := embed.TrainTransE(context.Background(), ds.Graph,
		embed.Config{Dim: schemaDim, Epochs: epochs, Seed: schemaSeed})
	if err != nil {
		return nil, fmt.Errorf("training the schema world's embedding: %w", err)
	}
	wd.model = model
	wd.trainTime = time.Since(start)
	return wd, nil
}

// buildLargeWorld generates datagen.LargeWorld(nodes). Nothing is trained
// at this scale: the model holds the name-seeded predicate vectors
// embed.Model.SpaceFor derives, materialised so semkgd can load them
// from a model file and build the identical space.
func buildLargeWorld(nodes int) (*world, error) {
	g := datagen.GenerateLarge(datagen.LargeWorld(nodes))
	wd := &world{g: g}
	wd.largeVocab()
	space, err := (&embed.Model{Cfg: embed.Config{Dim: largeDim}}).SpaceFor(g)
	if err != nil {
		return nil, err
	}
	rel := make([]embed.Vector, space.Len())
	for i := range rel {
		rel[i] = space.Vector(i)
	}
	wd.model = &embed.Model{Relations: rel, Cfg: embed.Config{Dim: largeDim}}
	return wd, nil
}

func (wd *world) engine() (*core.Engine, error) {
	return core.BuildEngine(wd.g, wd.model, wd.lib)
}

// writeFiles materialises the snapshot and model files semkgd boots from.
func (wd *world) writeFiles(dir string) (snap, model string, err error) {
	snap = filepath.Join(dir, "world.snap")
	model = filepath.Join(dir, "world.model")
	if err := kg.WriteSnapshotFile(snap, wd.g); err != nil {
		return "", "", err
	}
	f, err := os.Create(model)
	if err != nil {
		return "", "", err
	}
	if err := embed.WriteModel(f, wd.model); err != nil {
		f.Close()
		return "", "", err
	}
	return snap, model, f.Close()
}

// request is one generated search. key identifies the (query, options)
// pair for the reference cache of the correctness gate: requests with the
// same key must produce the same exact answer on the same generation.
type request struct {
	key   int
	q     *query.Graph
	opts  core.Options
	body  []byte // pre-encoded POST /v1/search document (HTTP workloads)
	focus string
	truth []string // ground truth (schema world only)
	class int      // 1 simple, 2 medium, 3 complex
}

func (wd *world) newRequest(w workload, key int, q *query.Graph, focus string, k int, bounded bool) *request {
	r := &request{
		key: key, q: q, focus: focus, class: 1,
		opts: core.Options{K: k, Tau: w.tau, MaxHops: w.maxHops},
	}
	if bounded {
		r.opts.TimeBound = w.bound
	}
	if w.http {
		r.body = r.encode()
	}
	return r
}

// exact returns the request's options with the time bound removed: the
// exact (SGQ) form of the same search.
func (r *request) exact() core.Options {
	opts := r.opts
	opts.TimeBound = 0
	return opts
}

// encode renders the request as a POST /v1/search document.
func (r *request) encode() []byte {
	body, err := json.Marshal(api.SearchRequest{Query: api.QueryFrom(r.q), Options: api.OptionsFrom(r.opts)})
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return body
}

// schemaKinds is one pass of the schema workloads: every ground-truth
// query at every K. The mix is bimodal (Simple queries answer in about a
// millisecond, Medium and Complex ones at K = 100 in a quarter second),
// so the runner measures whole passes only — a window cut mid-pass would
// change the share of heavy requests from run to run.
func (wd *world) schemaKinds(w workload) []*request {
	var kinds []*request
	for _, gq := range wd.queries {
		for _, k := range w.ks {
			r := wd.newRequest(w, len(kinds), gq.Graph, gq.Focus, k, w.boundEvery == 1)
			r.truth = gq.Truth
			r.class = gq.Complexity
			kinds = append(kinds, r)
		}
	}
	return kinds
}

// Large-world query space, in the shape of datagen.LargeQueries: a typed
// focus joined by one popular predicate to an anchor from the moderate
// hub band. 1024 anchors × 12 focus types × 8 predicates = 98304 distinct
// queries; a seeded permutation of that space never repeats within a run.
const (
	largeAnchors = 1024
	largeTypes   = 12
	largePreds   = 8
	largeSpace   = largeAnchors * largeTypes * largePreds
)

func (wd *world) largeQuery(combo int) *query.Graph {
	g := wd.g
	anchor := kg.NodeID(32 + combo%largeAnchors)
	if int(anchor) >= g.NumNodes() {
		anchor = kg.NodeID(combo % g.NumNodes())
	}
	combo /= largeAnchors
	focusType := wd.focusTypes[combo%largeTypes]
	pred := wd.focusPreds[combo/largeTypes%largePreds]
	return &query.Graph{
		Nodes: []query.Node{
			{ID: "v1", Type: focusType},
			{ID: "v2", Name: g.NodeName(anchor), Type: g.TypeName(g.NodeType(anchor))},
		},
		Edges: []query.Edge{{From: "v1", To: "v2", Predicate: pred}},
	}
}

// largeVocab picks the query vocabulary from the generated graph itself
// (the generator's name tables are private): the largeTypes most
// populous entity types after the two largest — whose end sets would
// dwarf every other request, the same cut datagen.LargeQueries makes —
// and the largePreds most used predicates.
func (wd *world) largeVocab() {
	g := wd.g
	types := make([]kg.TypeID, g.NumTypes())
	for i := range types {
		types[i] = kg.TypeID(i)
	}
	sort.SliceStable(types, func(i, j int) bool {
		return len(g.NodesOfType(types[i])) > len(g.NodesOfType(types[j]))
	})
	for i := 0; i < largeTypes; i++ {
		wd.focusTypes = append(wd.focusTypes, g.TypeName(types[(2+i)%len(types)]))
	}
	preds := make([]kg.PredID, g.NumPredicates())
	for i := range preds {
		preds[i] = kg.PredID(i)
	}
	sort.SliceStable(preds, func(i, j int) bool { return g.PredCount(preds[i]) > g.PredCount(preds[j]) })
	for i := 0; i < largePreds; i++ {
		wd.focusPreds = append(wd.focusPreds, g.PredName(preds[i%len(preds)]))
	}
}

// inputs is everything a run feeds the system, derived from the seed.
type inputs struct {
	// warm is sent before the measured window and never checked.
	warm []*request
	// open and due are an open loop's requests with their arrival offsets.
	open []*request
	due  []time.Duration
	// closed is the closed-loop pool: the whole schema pass sequence, or
	// an HTTP closed loop's requests (sized well above what one client
	// can consume in the window).
	closed []*request
	// passLen > 0 marks closed as a sequence of whole passes of that
	// many requests.
	passLen int
	// batches are the ingest batches, one NDJSON body per commit.
	batches [][]api.IngestTriple
	hash    string
}

// Closed-loop pool sizing (the window's and the warm-up's), in requests per
// second: well above what one client can consume (never-repeating requests
// each carry their own body; zipf draws share the population's). A pool
// that runs dry ends the loop early, it never wraps around.
const (
	poolRateDistinct = 3_000
	poolRateZipf     = 25_000
)

func (wd *world) generate(w workload, seed int64, seconds float64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	if !w.http {
		kinds := wd.schemaKinds(w)
		in.passLen = len(kinds)
		// Enough shuffled passes for the longest window at the fastest
		// plausible pass rate; the runner stops at a pass boundary.
		passes := int(seconds*4) + 2
		for p := 0; p < passes; p++ {
			for _, i := range rng.Perm(len(kinds)) {
				in.closed = append(in.closed, kinds[i])
			}
		}
		in.warm = kinds
		in.batches = wd.ingestBatches(w, rng, tracedCommits)
		in.hash = hashInputs(w, in)
		return in
	}

	perm := rng.Perm(largeSpace)
	bounded := func(i int) bool { return w.boundEvery > 0 && i%w.boundEvery == w.boundEvery-1 }
	var population []*request // zipf population, built once so bodies are shared
	var zipf *rand.Zipf
	if w.distinct > 0 {
		// The population and its popularity ranks are constants of the
		// workload, like the world: a fifth of the traffic is the rank-1
		// query, and which query that is sets the hit's response size and
		// the miss's cost (measured: one-client throughput of 3000 to
		// 5600 req/s across seeds when the seed picked the population).
		// The seed picks the draws.
		fixed := rand.New(rand.NewSource(populationSeed)).Perm(largeSpace)
		population = make([]*request, w.distinct)
		for i := range population {
			population[i] = wd.newRequest(w, i, wd.largeQuery(fixed[i]), "v1", w.ks[0], false)
		}
		zipf = rand.NewZipf(rng, 1.1, 1, uint64(w.distinct-1))
	}
	next := 0
	draw := func() *request {
		if zipf != nil {
			return population[zipf.Uint64()]
		}
		r := wd.newRequest(w, next, wd.largeQuery(perm[next%largeSpace]), "v1", w.ks[0], bounded(next))
		next++
		return r
	}

	poolRate := poolRateDistinct
	if zipf != nil {
		poolRate = poolRateZipf
	}
	if w.rate > 0 {
		window := time.Duration(seconds * float64(time.Second))
		for at := time.Duration(0); ; {
			// Seeded exponential inter-arrivals: a Poisson stream at w.rate.
			at += time.Duration(rng.ExpFloat64() / w.rate * float64(time.Second))
			if at >= window {
				break
			}
			in.open = append(in.open, draw())
			in.due = append(in.due, at)
		}
	} else {
		for i := int(seconds*float64(poolRate)) + 1; i > 0; i-- {
			in.closed = append(in.closed, draw())
		}
	}
	for i := int(w.warmup.Seconds()*float64(poolRate)) + 1; i > 0; i-- {
		in.warm = append(in.warm, draw())
	}
	commits := tracedCommits
	if w.ingestEvery > 0 {
		commits = int(seconds/w.ingestEvery.Seconds()) + 1
	}
	in.batches = wd.ingestBatches(w, rng, commits)
	in.hash = hashInputs(w, in)
	return in
}

// tracedCommits is how many ingest batches the traced run applies in
// process for serve.apply_ms and kg.delta_commit_ms. A workload with a
// writer generates one batch per period of the window instead.
const tracedCommits = 15

// populationSeed fixes http-zipf-ingest's query population.
const populationSeed = 1

// ingestBatches builds the write side: each batch declares new entities
// of the queried focus types and attaches them to hub anchors through the
// queried predicates, so a commit can change the answer of a later read
// and the correctness gate has something to catch.
func (wd *world) ingestBatches(w workload, rng *rand.Rand, n int) [][]api.IngestTriple {
	triples := w.ingestTriples
	if triples == 0 {
		triples = 200
	}
	var types, preds, anchors []string
	if w.http {
		types, preds = wd.focusTypes, wd.focusPreds
		for i := 0; i < largeAnchors && 32+i < wd.g.NumNodes(); i++ {
			anchors = append(anchors, wd.g.NodeName(kg.NodeID(32+i)))
		}
	} else {
		for _, gq := range wd.queries {
			for _, n := range gq.Graph.Nodes {
				if n.Name != "" {
					anchors = append(anchors, n.Name)
				} else if n.Type != "" {
					types = append(types, n.Type)
				}
			}
			for _, e := range gq.Graph.Edges {
				preds = append(preds, e.Predicate)
			}
		}
	}
	batches := make([][]api.IngestTriple, n)
	for b := range batches {
		for i := 0; len(batches[b]) < triples; i++ {
			name := fmt.Sprintf("Bench Ingest %d %d", b, i)
			batches[b] = append(batches[b],
				api.IngestTriple{S: name, P: "type", O: types[rng.Intn(len(types))]},
				api.IngestTriple{S: name, P: preds[rng.Intn(len(preds))], O: anchors[rng.Intn(len(anchors))]})
		}
		batches[b] = batches[b][:triples]
	}
	return batches
}

func encodeBatch(batch []api.IngestTriple) []byte {
	var out []byte
	for _, t := range batch {
		line, err := api.EncodeIngestTriple(t)
		if err != nil {
			panic(err) // three strings
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// hashInputs fingerprints everything the system will be fed, in order:
// same seed, same hash; the selftest holds the harness to that.
func hashInputs(w workload, in *inputs) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%g|", w.name, w.nodes, w.schemaScale)
	writeReqs := func(tag string, rs []*request) {
		fmt.Fprintf(h, "%s:%d|", tag, len(rs))
		for _, r := range rs {
			body := r.body
			if body == nil {
				body = r.encode()
			}
			h.Write(body)
		}
	}
	writeReqs("warm", in.warm)
	writeReqs("open", in.open)
	for _, d := range in.due {
		binary.Write(h, binary.LittleEndian, int64(d))
	}
	writeReqs("closed", in.closed)
	for _, b := range in.batches {
		h.Write(encodeBatch(b))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
