package main

import (
	"fmt"
	"time"
)

// workload fixes everything about one traffic mix except the seed. The
// values are constants of the benchmark: they are the same on every
// commit, and a change to any of them is a change to the yardstick (its
// own PR, baseline measured again).
type workload struct {
	name string
	// short marks the selftest's micro variant of the workload.
	short bool
	// http selects the system under test: one semkgd subprocess over a
	// large-world snapshot (true) or core.Engine.Search in process over
	// the schema world (false).
	http bool

	// schemaScale sizes datagen.DBpediaLike (trained for epochs TransE
	// epochs); nodes sizes datagen.LargeWorld. Exactly one is set.
	schemaScale float64
	epochs      int
	nodes       int

	tau     float64
	maxHops int
	ks      []int

	// bound is Options.TimeBound for the time-bounded requests of the
	// mix (0: none). boundEvery = 1 bounds every request, 2 every other
	// one (alternating exact and bounded).
	bound      time.Duration
	boundEvery int
	// limit is the latency limit behind ontime_share: 1.1 × bound where
	// the mix has a bound, else the interactive limit stated in the
	// README.
	limit time.Duration

	// subCache is the serving layer's shared sub-search cache size, as
	// semkgd's -sub-cache flag and serve.Config.SubCache take it: 0 is
	// the default, negative turns the cache off. Every other serving
	// flag stays at its default.
	subCache int
	// rate > 0 makes the HTTP workload's window an open loop at that many
	// arrivals per second (frozen from one measurement on the reference
	// host, see README); 0 makes it one closed-loop client.
	rate float64
	// distinct > 0 draws reads zipf(1.1) over that many distinct queries
	// (fits the result cache); 0 never repeats a query.
	distinct int
	// ingestEvery > 0 runs one writer posting an ingestTriples batch at
	// that period during the measured window.
	ingestEvery   time.Duration
	ingestTriples int

	warmup time.Duration
	// setups is how many times a run sets the system up; setup_s is the
	// median.
	setups int
}

// Embedding configuration of the schema world: internal/bench's defaults,
// so the world is the one the paper-reproduction experiments use.
const (
	schemaDim    = 48
	schemaEpochs = 120
	schemaSeed   = 3
	largeDim     = 32
)

// clients is the open loop's worker count and the connection cap of the
// HTTP workloads: the reference host has two cores, and the harness must
// not outnumber them. Every closed loop has one client: the caller and the
// server then take turns, where two callers beside a two-threaded server
// leave it to the scheduler who runs.
const clients = 2

func workloads(short bool) []workload {
	schema := workload{
		schemaScale: 3, epochs: schemaEpochs, tau: 0.7, maxHops: 4, ks: []int{20, 100},
		setups: 3,
	}
	large := workload{
		http: true, nodes: 100_000, tau: 0.55, maxHops: 2, ks: []int{10},
		warmup: 3 * time.Second, setups: 5,
		ingestTriples: 200,
		// The large world's queries are single-edge, so a sub-search is
		// the whole search and the shared sub-search cache can only
		// retain: with it on, one semkgd holds 0.8 to 2 GB of searcher
		// arenas and its peak RSS and tail latency spread by 20 to 40%
		// from run to run, which no bound can resolve (README, Findings).
		subCache: -1,
	}
	if short {
		schema.short, large.short = true, true
		schema.schemaScale = 0.15
		schema.epochs = 30
		schema.ks = []int{5, 20}
		schema.setups = 1
		large.nodes = 8_000
		large.setups = 1
		large.warmup = 200 * time.Millisecond
	}

	sgq := schema
	sgq.name = "schema-sgq"
	sgq.limit = time.Second

	tbq := schema
	tbq.name = "schema-tbq"
	tbq.bound = 25 * time.Millisecond
	tbq.boundEvery = 1
	tbq.limit = tbq.bound * 11 / 10

	pipe := large
	pipe.name = "http-pipeline"
	pipe.bound = 100 * time.Millisecond
	pipe.boundEvery = 2
	pipe.limit = pipe.bound * 11 / 10

	zipf := large
	zipf.name = "http-zipf-ingest"
	zipf.limit = pipe.limit
	zipf.rate = 200
	zipf.distinct = 512
	// An open loop, not a closed one: a cache hit is a 0.14 ms loopback
	// round trip, and the rate at which one client completes them spread
	// by 9 to 16% over seeds however it was driven (one or two clients,
	// harness on one or two threads, totals or medians over slices;
	// README).
	zipf.ingestEvery = 2 * time.Second
	if short {
		zipf.distinct = 64
		zipf.ingestEvery = 400 * time.Millisecond
	}
	return []workload{sgq, tbq, pipe, zipf}
}

func workloadByName(name string, short bool) (workload, error) {
	for _, w := range workloads(short) {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
