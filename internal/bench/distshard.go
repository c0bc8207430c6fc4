// Distributed shard experiment: the multi-process section of
// BENCH_shard.json. Where shard.go's rows measure the partition inside
// one process, this section builds the deployment — shard snapshot files
// on disk, one REAL shard server process per shard (semkgd -serve-shard,
// launched from a binary built on the spot), and the HTTP scatter-gather
// coordinator (core.DistEngine) driving them through the serving layer
// under a closed-loop load — and reports what the wall clock says.
//
// The section carries its own methodology string, its own env block (the
// coordinator's GOMAXPROCS is forced above 1 so the gather path can
// overlap the per-shard streams), and a launcher label saying whether
// the servers were real subprocesses or in-process stand-ins (tests).
// On a single-core host the multi-process rows measure coordination
// overhead, not parallel speedup — the env block's cpus field is how a
// reader tells those runs apart from a real multi-core deployment.
package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"semkg/internal/core"
	"semkg/internal/datagen"
	"semkg/internal/embed"
	"semkg/internal/query"
	"semkg/internal/serve"
	"semkg/internal/shard"
)

// distShardMethodology is embedded in the distributed section so the
// artifact says how its numbers were taken.
const distShardMethodology = "every number in this section is measured wall-clock: shard snapshot " +
	"files are partitioned to disk, one shard server per shard answers /v1/shard/search over real " +
	"HTTP (see launcher for whether servers are subprocesses or in-process test stand-ins), and the " +
	"scatter-gather coordinator serves a closed-loop agent load; qps_gain_vs_1 and p50_gain_vs_1 " +
	"compare against the 1-shard distributed run so process and wire overhead are charged to both " +
	"sides, local_* fields are the same load on the plain in-process engine; nothing here " +
	"extrapolates — on a single-CPU host (see cpus) the multi-shard rows can only show " +
	"coordination overhead, not parallel speedup"

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

// DistShardRow is one measured shard-count deployment.
type DistShardRow struct {
	Shards int `json:"shards"`
	// PartitionMs and ShardFileBytes are the one-time deployment costs:
	// cutting the partition and the total size of the snapshot files.
	PartitionMs    float64 `json:"partition_ms"`
	ShardFileBytes int64   `json:"shard_file_bytes"`
	// Closed-loop results over the measure phase.
	Requests   int     `json:"requests"`
	Errors     int     `json:"errors"`
	Overloaded int     `json:"overloaded_429"`
	QPS        float64 `json:"qps"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	// Coordinator counters for the run. Fallbacks must be zero for the
	// row to mean anything — a non-zero value says searches were answered
	// by the local engine, not the deployment.
	DistSearches uint64 `json:"dist_searches"`
	Fallbacks    uint64 `json:"local_fallbacks"`
	Hedges       uint64 `json:"hedges"`
	Retries      uint64 `json:"retries"`
	Failovers    uint64 `json:"failovers"`
	// QPSGainVs1 and P50GainVs1 compare against the 1-shard distributed
	// run (>1 means this row is better); both sides pay the process and
	// wire overhead, so the ratio isolates the partition's contribution.
	QPSGainVs1 float64 `json:"qps_gain_vs_1,omitempty"`
	P50GainVs1 float64 `json:"p50_gain_vs_1,omitempty"`
}

// DistShardSection is the measured multi-process block of ShardResult.
type DistShardSection struct {
	Methodology string          `json:"methodology"`
	Launcher    string          `json:"launcher"`
	Scale       string          `json:"scale"`
	Config      DistShardConfig `json:"config"`
	EnvInfo
	// LocalQPS / LocalP50Ms are the same closed loop over the plain
	// in-process engine: what the deployment gives up to the wire.
	LocalQPS   float64        `json:"local_qps"`
	LocalP50Ms float64        `json:"local_p50_ms"`
	Rows       []DistShardRow `json:"rows"`
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

// RunDistShard measures the distributed deployment at 1, 2 and 4 shards.
// A nil launcher builds semkgd and uses real subprocesses.
func RunDistShard(short bool, launcher ShardServerLauncher) (*DistShardSection, error) {
	return runDistShard(distShardConfig(short), launcher)
}

func runDistShard(cfg DistShardConfig, launcher ShardServerLauncher) (*DistShardSection, error) {
	dir, err := os.MkdirTemp("", "semkg-distshard-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if launcher == nil {
		sub, err := NewSubprocessLauncher(dir)
		if err != nil {
			return nil, err
		}
		sub.Procs = cfg.ServerGOMAXPROCS
		launcher = sub
	}

	// Force the coordinator's parallelism for the measured window: the
	// gather path must be able to read one shard's stream while merging
	// another's, which GOMAXPROCS=1 serializes.
	prevProcs := runtime.GOMAXPROCS(cfg.CoordinatorGOMAXPROCS)
	defer runtime.GOMAXPROCS(prevProcs)

	p := datagen.LargeWorld(cfg.Nodes)
	p.Seed = cfg.Seed
	g := datagen.GenerateLarge(p)
	space, err := (&embed.Model{Cfg: embed.Config{Dim: cfg.Dim}}).SpaceFor(g)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(g, space, nil)
	if err != nil {
		return nil, err
	}
	queries := datagen.LargeQueries(g, p, cfg.DistinctQueries)

	sec := &DistShardSection{
		Methodology: distShardMethodology,
		Launcher:    launcher.Name(),
		Scale:       fmt.Sprintf("%d nodes / %d edges", g.NumNodes(), g.NumEdges()),
		Config:      cfg,
		EnvInfo:     CaptureEnv(),
	}

	// The driver phases reuse the load harness's closed loop, in its
	// cache-bypassed shape: a random pivot marks every request
	// uncacheable, so each one runs the full pipeline through the
	// deployment. A cache-served loop would measure the coordinator's
	// result cache at every shard count — identically.
	loadCfg := LoadConfig{
		Agents: cfg.Agents, WarmupMs: cfg.WarmupMs, MeasureMs: cfg.MeasureMs,
		K: cfg.K, Tau: cfg.Tau, MaxHops: cfg.MaxHops,
	}
	mkOpts := func(agent int) core.Options {
		return core.Options{
			K: cfg.K, Tau: cfg.Tau, MaxHops: cfg.MaxHops,
			Strategy: query.RandomPivot,
			Rng:      rand.New(rand.NewSource(int64(8800 + agent))),
		}
	}

	local, err := closedLoop(serve.New(eng, serve.Config{}), queries, loadCfg, "local", mkOpts)
	if err != nil {
		return nil, err
	}
	sec.LocalQPS = local.QPS
	sec.LocalP50Ms = local.P50Ms

	for _, n := range []int{1, 2, 4} {
		row, err := runDistShardRow(eng, queries, loadCfg, mkOpts, launcher, dir, n)
		if err != nil {
			return nil, err
		}
		sec.Rows = append(sec.Rows, *row)
	}
	base := sec.Rows[0]
	for i := range sec.Rows[1:] {
		r := &sec.Rows[i+1]
		if base.QPS > 0 {
			r.QPSGainVs1 = r.QPS / base.QPS
		}
		if r.P50Ms > 0 {
			r.P50GainVs1 = base.P50Ms / r.P50Ms
		}
	}
	return sec, nil
}

// runDistShardRow deploys one shard count end to end and drives it.
func runDistShardRow(eng *core.Engine, queries []*query.Graph, loadCfg LoadConfig,
	mkOpts func(int) core.Options, launcher ShardServerLauncher, dir string, n int) (*DistShardRow, error) {
	pStart := time.Now()
	set, err := shard.Partition(eng.Graph(), shard.Options{Shards: n})
	if err != nil {
		return nil, err
	}
	row := &DistShardRow{Shards: n, PartitionMs: ms(time.Since(pStart))}

	shardDir := filepath.Join(dir, fmt.Sprintf("shards-%d", n))
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		return nil, err
	}
	// Cleaning each deployment up before the next keeps peak disk and
	// process count at one deployment's worth on the 1M-node run.
	defer os.RemoveAll(shardDir)
	hosts := make([][]string, n)
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
			return nil, err
		}
		if err := shard.WriteShard(f, set.Shard(i)); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		if fi, err := os.Stat(path); err == nil {
			row.ShardFileBytes += fi.Size()
		}
		url, stop, err := launcher.Launch([]string{path})
		if err != nil {
			return nil, err
		}
		stops = append(stops, stop)
		hosts[i] = []string{url}
	}

	de, err := core.NewDistEngine(eng, hosts, core.DistConfig{})
	if err != nil {
		return nil, err
	}
	drv, err := closedLoop(serve.New(de, serve.Config{}), queries, loadCfg,
		fmt.Sprintf("distributed-%d", n), mkOpts)
	if err != nil {
		return nil, err
	}
	st := de.Stats()
	row.Requests = drv.Requests
	row.Errors = drv.Errors
	row.Overloaded = drv.Overloaded
	row.QPS = drv.QPS
	row.P50Ms = drv.P50Ms
	row.P95Ms = drv.P95Ms
	row.DistSearches = st.Searches
	row.Fallbacks = st.Fallbacks
	row.Hedges = st.Hedges
	row.Retries = st.Retries
	row.Failovers = st.Failovers
	return row, nil
}

// renderRows appends the measured distributed rows to the shard table
// (called by ShardResult.Render when the section is present).
func (s *DistShardSection) renderRows(t *Table) {
	t.AddRow("— measured multi-process —", s.Launcher, "", "",
		fmt.Sprintf("local: %.0f qps, p50 %.2f ms", s.LocalQPS, s.LocalP50Ms), "", "", "")
	for _, r := range s.Rows {
		gain := "(baseline)"
		if r.QPSGainVs1 > 0 {
			gain = fmt.Sprintf("%.2fx qps, %.2fx p50 vs 1-shard", r.QPSGainVs1, r.P50GainVs1)
		}
		t.AddRow(
			fmt.Sprintf("%d (dist)", r.Shards),
			fmt.Sprintf("%.1f", r.PartitionMs),
			fmt.Sprintf("%.1f MB", float64(r.ShardFileBytes)/(1<<20)),
			fmt.Sprintf("%.0f qps", r.QPS),
			fmt.Sprintf("p50 %.2f / p95 %.2f ms", r.P50Ms, r.P95Ms),
			fmt.Sprintf("%d req, %d err", r.Requests, r.Errors),
			fmt.Sprintf("%d hedge/%d retry", r.Hedges, r.Retries),
			gain,
		)
	}
}
