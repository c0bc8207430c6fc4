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
// Distributed sharding (see DESIGN.md, "Scatter-gather") splits
// the scatter-gather pipeline across processes:
//
//	semkgd -graph g.tsv -shards 4 -save-shards dir/        # write shard files, exit
//	semkgd -serve-shard dir/shard-0-of-4.shard -addr :9001  # shard server
//	semkgd -graph g.tsv -model m.bin \
//	       -shard-hosts 'http://a:9001|http://b:9001,http://c:9002'  # coordinator
//
// A shard server loads shard snapshot files and answers per-sub-query
// searches on POST /v1/shard/search (no model needed — semantics stay on
// the coordinator). The coordinator compiles globally, scatters over the
// listed hosts (comma-separated shards, '|'-separated replicas of one
// shard), hedges a slow replica after twice its latency EWMA, retries a
// failed stream 3 times with capped jittered backoff, and serves the
// ordinary search API; a shard with no live replica fails the search
// with 502 rather than a silent partial top-k. The coordinator is
// read-only (ingest would stale the remote shard snapshots).
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
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"semkg/internal/core"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/serve"
	"semkg/internal/shard"
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
	shards := flag.Int("shards", 0, "partition the graph into N shards and serve scatter-gather searches (0/1 = single engine)")
	shardHalo := flag.Int("shard-halo", 0, "shard replication radius in hops; bounds servable max_hops (0 = default 4)")
	saveShards := flag.String("save-shards", "", "partition the loaded graph into -shards pieces, write one shard snapshot per shard into this directory, and exit")
	serveShard := flag.String("serve-shard", "", "run as a shard server: load these comma-separated shard snapshot files and answer /v1/shard/search (no -model needed)")
	shardHosts := flag.String("shard-hosts", "", "run as a distributed coordinator over these shard servers: comma-separated shards, '|'-separated replica URLs per shard")
	addrFile := flag.String("addr-file", "", "write the actual listen address to this file once listening (for -addr :0)")
	follow := flag.String("follow", "", "run as a read-only follower of the primary at this base URL (e.g. http://host:8375)")
	advertise := flag.String("advertise", "", "externally reachable base URL announced to followers in the replication hello")
	replicaLog := flag.Int("replica-log", 0, "max statements in the primary's replication log before compaction (0 = 65536)")
	snapshotEvery := flag.Duration("snapshot-interval", 0, "rewrite -save-snapshot in the background at this interval when the graph changed (0 = only at boot)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max time to drain in-flight requests on SIGTERM/SIGINT")
	flag.Parse()

	if *serveShard != "" {
		// Shard-server mode: no graph, no model — the shard files are the
		// whole world, and semantics stay on the coordinator.
		for _, f := range []struct {
			set  bool
			name string
		}{
			{*graphFile != "", "-graph"}, {*snapshotFile != "", "-snapshot"},
			{*modelFile != "", "-model"}, {*shardHosts != "", "-shard-hosts"},
			{*shards != 0, "-shards"}, {*follow != "", "-follow"},
		} {
			if f.set {
				fmt.Fprintf(os.Stderr, "semkgd: -serve-shard conflicts with %s\n", f.name)
				os.Exit(2)
			}
		}
		if err := runShardServer(strings.Split(*serveShard, ","), *addr, *addrFile, *drainTimeout); err != nil {
			log.Fatalf("semkgd: %v", err)
		}
		return
	}
	if *shardHosts != "" && (*shards != 0 || *follow != "") {
		fmt.Fprintln(os.Stderr, "semkgd: -shard-hosts (distributed coordinator) conflicts with -shards and -follow")
		os.Exit(2)
	}
	if *saveShards != "" {
		if *graphFile == "" && *snapshotFile == "" {
			fmt.Fprintln(os.Stderr, "semkgd: -save-shards requires -graph or -snapshot")
			os.Exit(2)
		}
		if *shards < 2 {
			fmt.Fprintln(os.Stderr, "semkgd: -save-shards requires -shards >= 2")
			os.Exit(2)
		}
	} else if *modelFile == "" {
		fmt.Fprintln(os.Stderr, "semkgd: -model is required")
		os.Exit(2)
	}
	if *follow == "" && *saveShards == "" && (*graphFile == "") == (*snapshotFile == "") {
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
	if *saveShards != "" {
		if err := writeShardFiles(g, *saveShards, *shards, *shardHalo); err != nil {
			log.Fatalf("semkgd: %v", err)
		}
		return
	}
	model, err := loadModel(*modelFile)
	if err != nil {
		log.Fatalf("semkgd: %v", err)
	}
	shardCfg := shard.Options{Shards: *shards, Halo: *shardHalo}
	buildEngine := func(g2 *kg.Graph, rebuild bool) (*core.Engine, error) {
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
		if *shardHosts != "" {
			if rebuild {
				return nil, fmt.Errorf("distributed coordinator is read-only: the remote shard snapshots cannot follow an ingest; rebuild shard files and restart")
			}
			base, err := core.BuildEngine(g2, model, nil)
			if err != nil {
				return nil, err
			}
			return core.NewDistEngine(base, parseShardHosts(*shardHosts))
		}
		if *shards > 1 {
			if !rebuild {
				return core.BuildShardedEngine(g2, model, nil, shardCfg)
			}
			// Ingest commit: a synchronous re-partition here would make
			// commit latency scale with the whole graph (one BFS plus one
			// index build per shard) instead of the delta. Serve the
			// committed graph through a plain engine immediately and let
			// the partition rebuild in the background; correctness is
			// unaffected — only the scatter-gather speedup lags.
			base, err := core.BuildEngine(g2, model, nil)
			if err != nil {
				return nil, err
			}
			// Rebuilds replace the engine wholesale; the new partition
			// inherits the serving one's counters, keeping the expvar
			// monotonic across generations.
			var prev *core.Engine
			if cur := currentServe.Load(); cur != nil {
				prev = cur.Engine()
			}
			log.Printf("semkgd: re-partitioning %d shards in the background; serving unsharded until ready", shardCfg.Shards)
			return core.NewResharding(base, prev, core.ReshardConfig{
				Shard: shardCfg,
				OnReady: func(st core.ShardedStats) {
					log.Printf("semkgd: background re-partition ready: %d shards, halo %d", st.Shards, st.Halo)
				},
				OnError: func(err error) {
					log.Printf("semkgd: background re-partition failed: %v; still serving unsharded", err)
				},
			}), nil
		}
		return core.BuildEngine(g2, model, nil)
	}
	eng, err := buildEngine(g, false)
	if err != nil {
		log.Fatalf("semkgd: %v", err)
	}
	deployed := eng.Deployment()
	if st := deployed.Sharded; st != nil {
		log.Printf("semkgd: sharded scatter-gather: %d shards, halo %d, replication factor %.2f",
			st.Shards, st.Halo, st.ReplicationFactor)
	}
	if st := deployed.Dist; st != nil {
		log.Printf("semkgd: distributed coordinator: %d shards, halo %d, replicas %v (read-only)",
			st.Shards, st.Halo, st.Replicas)
	}
	srv := serve.New(eng, serve.Config{
		ResultCache: *resultCache,
		SubCache:    *subCache,
		Workers:     *workers,
		Queue:       *queue,
		// Live ingestion rebuilds the engine over the committed graph;
		// SpaceFor pads vectors for predicates the model never saw. When
		// serving sharded, ingested entities are searchable immediately
		// through the interim unsharded engine while the partition
		// rebuilds in the background.
		Build: func(g2 *kg.Graph) (*core.Engine, error) { return buildEngine(g2, true) },
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

// parseShardHosts splits "-shard-hosts 'a|b,c'" into per-shard replica
// URL lists: ',' separates shards, '|' separates replicas of one shard.
func parseShardHosts(s string) [][]string {
	var hosts [][]string
	for _, shardPart := range strings.Split(s, ",") {
		var reps []string
		for _, h := range strings.Split(shardPart, "|") {
			if h = strings.TrimSpace(h); h != "" {
				reps = append(reps, h)
			}
		}
		hosts = append(hosts, reps)
	}
	return hosts
}

// writeShardFiles partitions g and writes one shard snapshot per shard
// as dir/shard-<i>-of-<n>.shard (the files -serve-shard loads).
func writeShardFiles(g *kg.Graph, dir string, shards, halo int) error {
	set, err := shard.Partition(g, shard.Options{Shards: shards, Halo: halo})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := 0; i < set.Len(); i++ {
		path := filepath.Join(dir, shardFileName(i, set.Len()))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := shard.WriteShard(f, set.Shard(i)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Printf("semkgd: wrote %s (%d nodes, %d owned)", path, set.Shard(i).Graph.NumNodes(), set.Shard(i).OwnedCount())
	}
	return nil
}

// shardFileName is the canonical shard snapshot file name.
func shardFileName(i, n int) string { return fmt.Sprintf("shard-%d-of-%d.shard", i, n) }

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
