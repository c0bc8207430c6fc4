package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"semkg/internal/api"
	"semkg/internal/core"
	"semkg/internal/kg"
	"semkg/internal/metrics"
)

// gate is the correctness check: an in-process engine per ingest
// generation, built by the harness from the same world and the same
// batches as the system under test, answers every measured request in the
// exact mode, and the system's answer list must equal it.
//
//   - an exact-mode answer must equal the reference of a generation that
//     was live while the request was in flight;
//   - a time-bounded answer not flagged Approximate must be the same
//     top-k (the bound did not bind, so TBQ must agree with SGQ) up to
//     the choice among entities tied at the k-th score: TBQ enumerates
//     every match and breaks that tie by node id, SGQ stops at the k-th
//     match in A* order, and both are correct top-k lists;
//   - an Approximate answer is only scored (f1_at_k), never compared.
//
// On the in-process workloads the system under test is the same engine
// code as the reference, so for exact requests the gate checks that
// repeated and shuffled execution is deterministic; the independent
// quality check there is f1_at_k against the generator's ground truth.
type gate struct {
	wd      *world
	engines []*core.Engine // by generation
	// commitTimes[i] is the in-process Delta.Commit time of batch i.
	commitTimes []time.Duration

	mu   sync.Mutex
	refs map[refKey]*reference
}

type refKey struct{ gen, key, k int }

// reference is one exact answer list in canonical form.
type reference struct {
	doc      []byte // canonical JSON of the []api.Answer
	answers  []api.Answer
	entities []string
}

// scoreEps absorbs the last-bit difference between the two modes' score
// sums: they add the same path similarities in a different order.
const scoreEps = 1e-9

func sameScore(a, b float64) bool { return math.Abs(a-b) <= scoreEps }

// sameTopK reports whether got is the same top-k as ref up to ties: equal
// scores rank by rank, and the same entities above the last score level,
// where any of the tied entities may fill the list.
func sameTopK(ref, got []api.Answer) bool {
	if len(ref) != len(got) {
		return false
	}
	if len(ref) == 0 {
		return true
	}
	last := ref[len(ref)-1].Score
	above := make(map[string]bool)
	for i := range ref {
		if !sameScore(ref[i].Score, got[i].Score) {
			return false
		}
		if !sameScore(ref[i].Score, last) {
			above[ref[i].Entity] = true
		}
	}
	for _, a := range got {
		if sameScore(a.Score, last) {
			continue
		}
		if !above[a.Entity] {
			return false
		}
		delete(above, a.Entity)
	}
	return len(above) == 0
}

func newGate(wd *world, eng *core.Engine) *gate {
	return &gate{wd: wd, engines: []*core.Engine{eng}, refs: make(map[refKey]*reference)}
}

// apply mirrors one ingest batch in process: the next generation's graph
// and engine, built the way semkgd builds them.
func (g *gate) apply(batch []api.IngestTriple) error {
	d := kg.NewDelta(g.engines[len(g.engines)-1].Graph())
	for _, t := range batch {
		if err := d.ApplyTriple(t.S, t.P, t.O); err != nil {
			return fmt.Errorf("mirroring ingest batch: %w", err)
		}
	}
	start := time.Now()
	next := d.Commit()
	g.commitTimes = append(g.commitTimes, time.Since(start))
	eng, err := core.BuildEngine(next, g.wd.model, g.wd.lib)
	if err != nil {
		return err
	}
	g.engines = append(g.engines, eng)
	return nil
}

func canonical(answers []api.Answer) []byte {
	doc, err := json.Marshal(answers)
	if err != nil {
		panic(err) // strings, floats and maps of strings
	}
	return doc
}

// entitiesOf lists the distinct entities bound to the focus query node,
// in rank order (core.Result.EntitiesOf on the wire form).
func entitiesOf(answers []api.Answer, focus string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range answers {
		if name, ok := a.Bindings[focus]; ok && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

func (g *gate) reference(gen int, r *request) (*reference, error) {
	key := refKey{gen, r.key, r.opts.K}
	g.mu.Lock()
	ref := g.refs[key]
	g.mu.Unlock()
	if ref != nil {
		return ref, nil
	}
	opts := r.exact()
	res, err := g.engines[gen].Search(context.Background(), r.q, opts)
	if err != nil {
		return nil, fmt.Errorf("reference search: %w", err)
	}
	answers := api.AnswersFrom(res.Answers)
	ref = &reference{doc: canonical(answers), answers: answers, entities: entitiesOf(answers, r.focus)}
	g.mu.Lock()
	g.refs[key] = ref
	g.mu.Unlock()
	return ref, nil
}

// checked is the gate's verdict on one sample.
type checked struct {
	ok      bool // answered, and not contradicted by the reference
	f1      float64
	elapsed time.Duration // server-side pipeline time from the body
	why     string
}

// f1 scores a ranked entity list against a truth set. Two empty lists
// agree perfectly (a query no entity answers, answered with none), which
// metrics.Evaluate alone would score 0.
func f1(entities, truth []string) float64 {
	if len(entities) == 0 && len(truth) == 0 {
		return 1
	}
	return metrics.Evaluate(entities, truth).F1
}

// check verifies one sample against the generations gens[0]..gens[1] that
// may have answered it.
func (g *gate) check(s *sample, gens [2]int) checked {
	if s.out.err != nil {
		return checked{why: s.out.err.Error()}
	}
	if s.out.status != http.StatusOK {
		return checked{why: fmt.Sprintf("status %d: %s", s.out.status, bytes.TrimSpace(s.out.raw))}
	}
	var result api.Result
	if s.out.res != nil {
		result = api.ResultFrom(s.out.res)
	} else if err := json.Unmarshal(s.out.raw, &result); err != nil {
		return checked{why: "undecodable response: " + err.Error()}
	}
	c := checked{elapsed: time.Duration(result.Elapsed)}
	entities := entitiesOf(result.Answers, s.req.focus)
	doc := canonical(result.Answers)

	var refErr error
	matched := -1
	for gen := gens[0]; gen <= gens[1]; gen++ {
		ref, err := g.reference(gen, s.req)
		if err != nil {
			refErr = err
			break
		}
		if bytes.Equal(ref.doc, doc) || (s.req.opts.TimeBound > 0 && sameTopK(ref.answers, result.Answers)) {
			matched = gen
			break
		}
	}
	switch {
	case refErr != nil:
		c.why = refErr.Error()
		return c
	case matched < 0 && !result.Approximate:
		c.why = fmt.Sprintf("answer list differs from the in-process exact answer (generations %d..%d, key %d, k %d)",
			gens[0], gens[1], s.req.key, s.req.opts.K)
		return c
	}
	c.ok = true
	truth := s.req.truth
	if truth == nil {
		// No generator ground truth on the large world: score against
		// the exact answer, which makes f1_at_k the share of quality a
		// time-bounded answer retains.
		gen := matched
		if gen < 0 {
			gen = gens[0]
		}
		ref, _ := g.reference(gen, s.req)
		truth = ref.entities
	}
	c.f1 = f1(entities, truth)
	return c
}

// refJob names one reference: a request's exact answer on one generation.
type refJob struct {
	gen int
	r   *request
}

// fetch computes references on two workers, so the check of thousands of
// distinct requests stays short. Errors resurface in check.
func (g *gate) fetch(jobs []refJob) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				_, _ = g.reference(jobs[i].gen, jobs[i].r)
			}
		}()
	}
	wg.Wait()
}

// prefetch computes the references of reqs on the first generation.
func (g *gate) prefetch(reqs []*request) {
	jobs := make([]refJob, len(reqs))
	for i, r := range reqs {
		jobs[i] = refJob{0, r}
	}
	g.fetch(jobs)
}

// prefetchAt computes the references the samples will need: for each, the
// first generation that may have answered it, the likely match; later
// ones are computed on demand by check.
func (g *gate) prefetchAt(samples []sample, gens func(*sample) [2]int) {
	var jobs []refJob
	seen := make(map[refKey]bool)
	for i := range samples {
		s := &samples[i]
		gen := gens(s)[0]
		if k := (refKey{gen, s.req.key, s.req.opts.K}); !seen[k] {
			seen[k] = true
			jobs = append(jobs, refJob{gen, s.req})
		}
	}
	g.fetch(jobs)
}
