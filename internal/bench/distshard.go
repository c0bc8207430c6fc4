// Distributed shard experiment: the "distributed" section of
// BENCH_shard.json. Where shard.go's rows measure the partition inside
// one process, this section builds the deployment — shard snapshot files
// on disk, one REAL shard server process per shard (semkgd -serve-shard,
// launched from a binary built on the spot), and the HTTP scatter-gather
// coordinator (core.NewDistEngine) driving them through the serving layer
// under a closed-loop load — and reports what the wall clock says.
//
// qps_gain_vs_1 and p50_gain_vs_1 compare against the 1-shard distributed
// run, so process and wire overhead are charged to both sides; the
// "local" row is the same load on the plain in-process engine. The
// coordinator's GOMAXPROCS is forced above 1 so the gather path can
// overlap the per-shard streams (the "world" row records it with the heap
// of the built world), and the config's launcher label says whether the
// servers were real subprocesses or in-process stand-ins (tests). On a
// single-core host the multi-process rows measure coordination overhead,
// not parallel speedup — the env block's cpus field is how a reader tells
// those runs apart from a real multi-core deployment.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"semkg/internal/core"
	"semkg/internal/query"
	"semkg/internal/serve"
	"semkg/internal/shard"
)

// DistShardConfig sizes the measured distributed run.
type DistShardConfig struct {
	Nodes           int     `json:"nodes"`
	Seed            int64   `json:"seed"`
	Dim             int     `json:"dim"`
	K               int     `json:"k"`
	Tau             float64 `json:"tau"`
	MaxHops         int     `json:"max_hops"`
	Agents          int     `json:"agents"`
	DistinctQueries int     `json:"distinct_queries"`
	WarmupMs        int64   `json:"warmup_ms"`
	MeasureMs       int64   `json:"measure_ms"`
	// CoordinatorGOMAXPROCS is forced for the duration of the run (and
	// restored after): the gather path needs >1 so reading one shard's
	// stream can overlap merging another's. ServerGOMAXPROCS is passed to
	// subprocess shard servers via their environment.
	CoordinatorGOMAXPROCS int  `json:"coordinator_gomaxprocs"`
	ServerGOMAXPROCS      int  `json:"server_gomaxprocs"`
	Short                 bool `json:"short"`
	// Launcher records how the shard servers were started.
	Launcher string `json:"launcher"`
}

func distShardConfig(short bool) DistShardConfig {
	procs := runtime.NumCPU()
	if procs < 2 {
		procs = 2
	}
	cfg := DistShardConfig{
		Nodes:                 1_000_000,
		Seed:                  1,
		Dim:                   32,
		K:                     10,
		Tau:                   0.55,
		MaxHops:               2,
		Agents:                2 * procs,
		DistinctQueries:       256,
		WarmupMs:              1000,
		MeasureMs:             5000,
		CoordinatorGOMAXPROCS: procs,
		ServerGOMAXPROCS:      procs,
		Short:                 short,
	}
	if short {
		cfg.Nodes = 50_000
		cfg.Agents = 4
		cfg.DistinctQueries = 64
		cfg.WarmupMs = 250
		cfg.MeasureMs = 1000
	}
	return cfg
}

// ShardServerLauncher abstracts how shard servers come up: real semkgd
// subprocesses for kgbench runs, in-process HTTP servers for tests.
type ShardServerLauncher interface {
	// Name labels the launcher in the artifact.
	Name() string
	// Launch starts one server holding the given shard snapshot files and
	// returns its base URL and a stop function.
	Launch(files []string) (url string, stop func(), err error)
}

// SubprocessLauncher builds the semkgd binary once and launches real
// `semkgd -serve-shard` processes.
type SubprocessLauncher struct {
	dir string
	bin string
	// Procs, when non-zero, is exported as GOMAXPROCS to launched servers.
	Procs int
}

// NewSubprocessLauncher builds semkgd into dir.
func NewSubprocessLauncher(dir string) (*SubprocessLauncher, error) {
	bin := filepath.Join(dir, "semkgd")
	cmd := exec.Command("go", "build", "-o", bin, "semkg/cmd/semkgd")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench: building semkgd: %w\n%s", err, out.Bytes())
	}
	return &SubprocessLauncher{dir: dir, bin: bin}, nil
}

// Name implements ShardServerLauncher.
func (l *SubprocessLauncher) Name() string { return "subprocess (semkgd -serve-shard)" }

// Launch implements ShardServerLauncher.
func (l *SubprocessLauncher) Launch(files []string) (string, func(), error) {
	addrFile, err := os.CreateTemp(l.dir, "addr-*")
	if err != nil {
		return "", nil, err
	}
	addrPath := addrFile.Name()
	addrFile.Close()
	os.Remove(addrPath)

	cmd := exec.Command(l.bin,
		"-serve-shard", strings.Join(files, ","),
		"-addr", "127.0.0.1:0", "-addr-file", addrPath)
	var logBuf bytes.Buffer
	cmd.Stderr = &logBuf
	if l.Procs > 0 {
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", l.Procs))
	}
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	stop := func() {
		_ = cmd.Process.Kill()
		<-exited
		os.Remove(addrPath)
	}
	// Loading a million-node shard is a full snapshot decode plus index
	// build inside the subprocess, sharing the host with the already-built
	// coordinator world — give it minutes, but fail immediately if the
	// process dies.
	deadline := time.Now().Add(10 * time.Minute)
	for time.Now().Before(deadline) {
		select {
		case err := <-exited:
			os.Remove(addrPath)
			return "", nil, fmt.Errorf("bench: shard server exited before listening (%v); log:\n%s", err, logBuf.Bytes())
		default:
		}
		b, err := os.ReadFile(addrPath)
		if err == nil && len(bytes.TrimSpace(b)) > 0 {
			return "http://" + string(bytes.TrimSpace(b)), stop, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	stop()
	return "", nil, fmt.Errorf("bench: shard server never announced an address; log:\n%s", logBuf.Bytes())
}

// InprocLauncher serves shard files from httptest servers inside this
// process: the test stand-in, labeled as such in the artifact.
type InprocLauncher struct{}

// Name implements ShardServerLauncher.
func (l *InprocLauncher) Name() string { return "in-process (httptest stand-in)" }

// Launch implements ShardServerLauncher.
func (l *InprocLauncher) Launch(files []string) (string, func(), error) {
	shards := make([]*shard.Shard, len(files))
	for i, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return "", nil, err
		}
		sh, err := shard.ReadShard(f)
		f.Close()
		if err != nil {
			return "", nil, fmt.Errorf("bench: loading %s: %w", path, err)
		}
		shards[i] = sh
	}
	srv, err := shard.NewServer(shards...)
	if err != nil {
		return "", nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	return hs.URL, hs.Close, nil
}

// runDistShard measures the distributed deployment at 1, 2 and 4 shards,
// adding the "distributed" rows to art. A nil launcher builds semkgd and
// uses real subprocesses.
func runDistShard(ctx context.Context, art *Artifact, cfg *DistShardConfig, launcher ShardServerLauncher) error {
	dir, err := os.MkdirTemp("", "semkg-distshard-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if launcher == nil {
		sub, err := NewSubprocessLauncher(dir)
		if err != nil {
			return err
		}
		sub.Procs = cfg.ServerGOMAXPROCS
		launcher = sub
	}
	cfg.Launcher = launcher.Name()

	// Force the coordinator's parallelism for the measured window: the
	// gather path must be able to read one shard's stream while merging
	// another's, which GOMAXPROCS=1 serializes.
	prevProcs := runtime.GOMAXPROCS(cfg.CoordinatorGOMAXPROCS)
	defer runtime.GOMAXPROCS(prevProcs)

	_, eng, queries, err := largeWorld(cfg.Nodes, cfg.Seed, cfg.Dim, cfg.DistinctQueries)
	if err != nil {
		return err
	}
	world := CaptureEnv()
	art.add("distributed", "world", map[string]float64{
		"nodes":             float64(eng.Graph().NumNodes()),
		"edges":             float64(eng.Graph().NumEdges()),
		"gomaxprocs":        float64(world.GOMAXPROCS),
		"heap_alloc_bytes":  float64(world.HeapAllocBytes),
		"total_alloc_bytes": float64(world.TotalAllocBytes),
	})

	// The closed loop runs in its cache-bypassed shape, so each request
	// runs the full pipeline through the deployment. A cache-served loop
	// would measure the coordinator's result cache at every shard count —
	// identically.
	load := Load{Clients: cfg.Agents,
		Warmup:  time.Duration(cfg.WarmupMs) * time.Millisecond,
		Measure: time.Duration(cfg.MeasureMs) * time.Millisecond}
	mkOpts := bypassCache(core.Options{K: cfg.K, Tau: cfg.Tau, MaxHops: cfg.MaxHops}, 8800)

	local, err := closedLoop(ctx, serve.New(eng, serve.Config{}), queries, load, mkOpts)
	if err != nil {
		return err
	}
	art.add("distributed", "local (in-process engine)", nil).Sample = &local

	var base Sample
	for _, n := range []int{1, 2, 4} {
		s, values, err := runDistShardRow(ctx, eng, queries, load, mkOpts, launcher, dir, n)
		if err != nil {
			return err
		}
		if n == 1 {
			base = s
		} else {
			if base.QPS > 0 {
				values["qps_gain_vs_1"] = s.QPS / base.QPS
			}
			if s.P50Us > 0 {
				values["p50_gain_vs_1"] = base.P50Us / s.P50Us
			}
		}
		art.add("distributed", fmt.Sprintf("%d shard servers", n), values).Sample = &s
	}
	return nil
}

// runDistShardRow deploys one shard count end to end and drives it.
// partition_ms and shard_file_bytes are the one-time deployment costs;
// local_fallbacks must be zero for the row to mean anything — a non-zero
// value says searches were answered by the local engine, not the
// deployment.
func runDistShardRow(ctx context.Context, eng *core.Engine, queries []*query.Graph, load Load,
	mkOpts func(int) core.Options, launcher ShardServerLauncher, dir string, n int) (Sample, map[string]float64, error) {
	pStart := time.Now()
	set, err := shard.Partition(eng.Graph(), shard.Options{Shards: n})
	if err != nil {
		return Sample{}, nil, err
	}
	partition := time.Since(pStart)

	shardDir := filepath.Join(dir, fmt.Sprintf("shards-%d", n))
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		return Sample{}, nil, err
	}
	// Cleaning each deployment up before the next keeps peak disk and
	// process count at one deployment's worth on the 1M-node run.
	defer os.RemoveAll(shardDir)
	hosts := make([][]string, n)
	var fileBytes int64
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i := 0; i < n; i++ {
		path := filepath.Join(shardDir, fmt.Sprintf("shard-%d-of-%d.shard", i, n))
		f, err := os.Create(path)
		if err != nil {
			return Sample{}, nil, err
		}
		if err := shard.WriteShard(f, set.Shard(i)); err != nil {
			f.Close()
			return Sample{}, nil, err
		}
		if err := f.Close(); err != nil {
			return Sample{}, nil, err
		}
		if fi, err := os.Stat(path); err == nil {
			fileBytes += fi.Size()
		}
		url, stop, err := launcher.Launch([]string{path})
		if err != nil {
			return Sample{}, nil, err
		}
		stops = append(stops, stop)
		hosts[i] = []string{url}
	}

	de, err := core.NewDistEngine(eng, hosts)
	if err != nil {
		return Sample{}, nil, err
	}
	s, err := closedLoop(ctx, serve.New(de, serve.Config{}), queries, load, mkOpts)
	if err != nil {
		return Sample{}, nil, fmt.Errorf("distributed-%d: %w", n, err)
	}
	st := de.Deployment().Dist
	return s, map[string]float64{
		"shards":           float64(n),
		"partition_ms":     ms(partition),
		"shard_file_bytes": float64(fileBytes),
		"dist_searches":    float64(st.Searches),
		"local_fallbacks":  float64(st.Fallbacks),
		"hedges":           float64(st.Hedges),
		"retries":          float64(st.Retries),
		"failovers":        float64(st.Failovers),
	}, nil
}
