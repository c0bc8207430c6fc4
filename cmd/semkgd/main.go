// Command semkgd serves semantic-guided top-k search over HTTP. It loads
// a knowledge graph and a trained embedding model once, then answers
// query-graph searches on two endpoints:
//
//	POST /v1/search   batch: one JSON result when the search finishes
//	POST /v1/stream   streaming: NDJSON events — phase transitions,
//	                  per-sub-query progress, provisional top-k snapshots
//	                  with TA bounds, and a terminal result line
//	POST /v1/batch    a group of queries in one call: overlapping
//	                  sub-query searches run once; per-query results (or,
//	                  with ?stream=1, one NDJSON connection of
//	                  index/id-tagged event lines)
//
// plus GET /healthz (liveness and graph shape) and GET /debug/vars
// (expvar counters). Request bodies are api.SearchRequest documents; bad
// queries and out-of-range options return 400 with a JSON error.
//
// Requests pass through the engine-level serving layer (internal/serve):
// a result cache absorbs repeated queries, concurrent identical requests
// collapse to one pipeline execution, different queries sharing a
// sub-query blueprint share one A* enumeration (-sub-cache), and a
// bounded worker pool sheds overload — a shed request gets 429 with a
// Retry-After header instead of queueing past its time bound. Cache and
// admission counters are exported under the "semkgd_serve" expvar key.
//
//	semkgd -graph g.tsv -model m.bin -addr :8375 \
//	       -workers 8 -queue 32 -result-cache 1024 -sub-cache 512
//
// The storage layer (see DESIGN.md, "Storage layer") adds live ingestion
// and binary cold starts:
//
//	POST /v1/ingest   NDJSON triples {"s":..,"p":..,"o":..}; the batch
//	                  commits as one delta against the served graph and
//	                  swaps the engine generation (the caches invalidate
//	                  exactly once)
//
//	semkgd -snapshot g.snap -model m.bin            # binary cold start
//	semkgd -graph g.tsv -save-snapshot g.snap ...   # convert on boot
//
// -graph accepts either format (the snapshot magic is sniffed);
// -snapshot insists on the binary format. -save-snapshot writes the
// loaded graph back out as a snapshot, so the next start skips the TSV
// parse and index build entirely.
//
// Replication (see DESIGN.md, "Replication and failure model") makes
// every semkgd a streaming primary and lets it run as a follower:
//
//	GET  /v1/replicate  NDJSON state stream: snapshot bootstrap, then
//	                    one delta batch per commit (control frames +
//	                    ingest-format triples); ?from=G&epoch=E resumes
//	POST /v1/promote    flip a follower into a writable primary with a
//	                    fresh epoch (409 when already primary)
//
//	semkgd -model m.bin -follow http://primary:8375   # read-only follower
//	semkgd ... -advertise http://me:8375              # URL told to followers
//	semkgd ... -save-snapshot live.snap -snapshot-interval 30s
//
// A follower may omit -graph/-snapshot and bootstrap from the primary's
// stream; it rejects /v1/ingest with 403 and reports role, sync state
// and lag in /healthz and under the "semkgd_replica" expvar key. The
// background compactor rewrites -save-snapshot atomically (temp +
// rename) whenever the graph changed. On SIGTERM/SIGINT the server
// stops replication and drains in-flight requests up to -drain-timeout.
//
// The streaming endpoint is the wire form of the paper's anytime
// behaviour (Section VI, Theorem 4): in time-bounded mode clients render
// provisional answers while the search refines them. See DESIGN.md,
// "Wire protocol".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"semkg/internal/core"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/serve"
)

func main() {
	graphFile := flag.String("graph", "", "graph file, TSV triples or binary snapshot (this or -snapshot is required)")
	snapshotFile := flag.String("snapshot", "", "binary graph snapshot file (this or -graph is required)")
	saveSnapshot := flag.String("save-snapshot", "", "write the loaded graph as a binary snapshot to this path and continue serving")
	modelFile := flag.String("model", "", "embedding model file (required)")
	addr := flag.String("addr", ":8375", "listen address")
	workers := flag.Int("workers", 0, "max concurrent pipeline executions (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max queued requests (0 = 4x workers, -1 = none: shed when busy)")
	resultCache := flag.Int("result-cache", 0, "result cache entries (0 = 1024×workers, -1 = disabled)")
	subCache := flag.Int("sub-cache", 0, "shared sub-search cache entries for cross-query sharing (0 = 512×workers, -1 = disabled)")
	maxIngest := flag.Int64("max-ingest-bytes", defaultMaxIngestBytes, "max /v1/ingest request body size in bytes (0 = unlimited)")
	addrFile := flag.String("addr-file", "", "write the actual listen address to this file once listening (for -addr :0)")
	follow := flag.String("follow", "", "run as a read-only follower of the primary at this base URL (e.g. http://host:8375)")
	advertise := flag.String("advertise", "", "externally reachable base URL announced to followers in the replication hello")
	replicaLog := flag.Int("replica-log", 0, "max statements in the primary's replication log before compaction (0 = 65536)")
	snapshotEvery := flag.Duration("snapshot-interval", 0, "rewrite -save-snapshot in the background at this interval when the graph changed (0 = only at boot)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max time to drain in-flight requests on SIGTERM/SIGINT")
	flag.Parse()

	if *modelFile == "" {
		fmt.Fprintln(os.Stderr, "semkgd: -model is required")
		os.Exit(2)
	}
	if *follow == "" && (*graphFile == "") == (*snapshotFile == "") {
		fmt.Fprintln(os.Stderr, "semkgd: exactly one of -graph / -snapshot is required (a -follow node may omit both and bootstrap from the primary)")
		os.Exit(2)
	}
	if *graphFile != "" && *snapshotFile != "" {
		fmt.Fprintln(os.Stderr, "semkgd: at most one of -graph / -snapshot")
		os.Exit(2)
	}

	start := time.Now()
	var g *kg.Graph
	var err error
	switch {
	case *snapshotFile != "":
		g, err = loadGraph(*snapshotFile, kg.ReadSnapshot)
	case *graphFile != "":
		g, err = loadGraph(*graphFile, kg.ReadGraph)
	default:
		// Follower with no local graph: bootstrap empty and let the
		// primary's snapshot stream fill it in.
		g = kg.Empty()
	}
	if err != nil {
		log.Fatalf("semkgd: %v", err)
	}
	if *saveSnapshot != "" {
		if err := kg.WriteSnapshotFile(*saveSnapshot, g); err != nil {
			log.Fatalf("semkgd: %v", err)
		}
		log.Printf("semkgd: wrote snapshot %s", *saveSnapshot)
	}
	model, err := loadModel(*modelFile)
	if err != nil {
		log.Fatalf("semkgd: %v", err)
	}
	buildEngine := func(g2 *kg.Graph) (*core.Engine, error) {
		if *follow != "" && g2.NumPredicates() < len(model.Relations) {
			// Follower bootstrap window: the graph is a replayed prefix
			// of the primary's, whose predicate intern order is the
			// model's training order, so the positional prefix of the
			// trained relations labels it correctly. (A primary with a
			// too-small graph is still a pairing error — SpaceFor
			// rejects it below.)
			sp, err := embed.NewSpace(g2.Predicates(), model.Relations[:g2.NumPredicates()])
			if err != nil {
				return nil, err
			}
			return core.NewEngine(g2, sp, nil)
		}
		return core.BuildEngine(g2, model, nil)
	}
	eng, err := buildEngine(g)
	if err != nil {
		log.Fatalf("semkgd: %v", err)
	}
	srv := serve.New(eng, serve.Config{
		ResultCache: *resultCache,
		SubCache:    *subCache,
		Workers:     *workers,
		Queue:       *queue,
		// Live ingestion rebuilds the engine over the committed graph;
		// SpaceFor pads vectors for predicates the model never saw.
		Build: buildEngine,
	})
	var repl *replState
	if *follow != "" {
		repl = newFollowerState(srv, *follow, *advertise, *replicaLog)
		log.Printf("semkgd: following %s (read-only until promoted)", *follow)
	} else {
		repl = newPrimaryState(srv, *advertise, *replicaLog)
		log.Printf("semkgd: replication primary, epoch %s", repl.currentPrimary().Epoch())
	}

	if *saveSnapshot != "" && *snapshotEvery > 0 {
		compactorCtx, stopCompactor := context.WithCancel(context.Background())
		defer stopCompactor()
		go runCompactor(compactorCtx, srv, *saveSnapshot, *snapshotEvery, log.Printf)
	}

	ln, err := listenAndAnnounce(*addr, *addrFile)
	if err != nil {
		log.Fatalf("semkgd: %v", err)
	}
	log.Printf("semkgd: %d nodes, %d edges, %d predicates loaded in %s; listening on %s",
		g.NumNodes(), g.NumEdges(), g.NumPredicates(), time.Since(start).Round(time.Millisecond), ln.Addr())

	httpSrv := &http.Server{Handler: newMuxReplicated(srv, *maxIngest, repl)}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := drainOnSignal(httpSrv, repl, *drainTimeout, sig)
	if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("semkgd: %v", err)
	}
	if err := <-drained; err != nil {
		log.Fatalf("semkgd: drain: %v", err)
	}
	log.Printf("semkgd: drained and stopped")
}

// drainOnSignal arms graceful shutdown: when trigger delivers, the
// replication role is closed (follower tail stops, primary streams
// wake and end) and the HTTP server drains in-flight requests up to
// timeout before closing. The returned channel carries Shutdown's
// error; ListenAndServe returns http.ErrServerClosed the moment the
// drain starts.
func drainOnSignal(httpSrv *http.Server, repl *replState, timeout time.Duration, trigger <-chan os.Signal) <-chan error {
	done := make(chan error, 1)
	go func() {
		<-trigger
		log.Printf("semkgd: draining in-flight requests (timeout %s)", timeout)
		if repl != nil {
			repl.close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		done <- httpSrv.Shutdown(ctx)
	}()
	return done
}

// listenAndAnnounce binds addr and, when addrFile is set, writes the
// bound address (useful with -addr 127.0.0.1:0) so scripts and tests can
// discover the port.
func listenAndAnnounce(addr, addrFile string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return nil, fmt.Errorf("writing -addr-file: %w", err)
		}
	}
	return ln, nil
}

func loadGraph(path string, read func(io.Reader) (*kg.Graph, error)) (*kg.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}

func loadModel(path string) (*embed.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return embed.ReadModel(f)
}
