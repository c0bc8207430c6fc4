// Package bench implements the experiment harness of Section VII: one
// workload function per table and figure of the paper's evaluation and
// per system artifact, over the synthetic dataset substitutes, all
// running through the one harness in runner.go (see DESIGN.md,
// "Evaluation harness", for the schema and the experiment index).
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"semkg/internal/core"
	"semkg/internal/datagen"
	"semkg/internal/embed"
	"semkg/internal/kg"
)

// EnvInfo is the machine/runtime block embedded in every experiment
// artifact, so perf rows are comparable across machines and across
// GOMAXPROCS settings. Heap figures come from runtime.MemStats at
// capture time.
type EnvInfo struct {
	GoVersion       string `json:"go_version"`
	GOOS            string `json:"goos"`
	GOARCH          string `json:"goarch"`
	CPUs            int    `json:"cpus"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	When            string `json:"when"`
}

// CaptureEnv snapshots the runtime environment for an artifact's env
// block.
func CaptureEnv() EnvInfo {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return EnvInfo{
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		CPUs:            runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		When:            time.Now().UTC().Format(time.RFC3339),
	}
}

// Config prepares one experimental environment.
type Config struct {
	Profile datagen.Profile
	// Embed configures the offline TransE run; zero values use
	// Dim 48 / Epochs 120 / Seed 3.
	Embed embed.Config
	// Tau is the pss threshold used by SGQ/TBQ in the experiments.
	// Default 0.7 — the scaled equivalent of the paper's 0.8 (our space
	// is trained on ~10^4 triples instead of ~10^7, so the absolute
	// similarity levels of correct schemas sit lower; the sensitivity
	// sweep of Table X covers the range and shows the same
	// flat-then-collapse shape one notch above the default).
	Tau float64
	// MaxHops is the n̂ bound. Default 4 (paper default).
	MaxHops int
}

func (c Config) withDefaults() Config {
	if c.Embed.Dim == 0 {
		c.Embed.Dim = 48
	}
	if c.Embed.Epochs == 0 {
		c.Embed.Epochs = 120
	}
	if c.Embed.Seed == 0 {
		c.Embed.Seed = 3
	}
	if c.Tau == 0 {
		c.Tau = 0.7
	}
	if c.MaxHops == 0 {
		c.MaxHops = 4
	}
	return c
}

// Env is a prepared environment: generated dataset, trained space, engine.
type Env struct {
	Cfg     Config
	Dataset *datagen.Dataset
	Engine  *core.Engine
	Space   *embed.Space

	// TrainTime and ModelBytes describe the offline embedding phase
	// (Table IX's offline columns).
	TrainTime  time.Duration
	ModelBytes int64
}

// New generates the dataset, trains the embedding, and builds the engine.
func New(cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	ds := datagen.Generate(cfg.Profile)
	start := time.Now()
	model, err := embed.TrainTransE(context.Background(), ds.Graph, cfg.Embed)
	if err != nil {
		return nil, fmt.Errorf("bench: training embedding: %w", err)
	}
	trainTime := time.Since(start)
	space, err := model.Space(ds.Graph)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(ds.Graph, space, ds.Library)
	if err != nil {
		return nil, err
	}
	dim := int64(cfg.Embed.Dim)
	return &Env{
		Cfg:        cfg,
		Dataset:    ds,
		Engine:     eng,
		Space:      space,
		TrainTime:  trainTime,
		ModelBytes: (int64(ds.Graph.NumNodes()) + int64(ds.Graph.NumPredicates())) * dim * 8,
	}, nil
}

// artifact starts an experiment's artifact over this environment.
func (e *Env) artifact(experiment string) *Artifact {
	return newArtifact(experiment, e.Cfg.Profile.Name, e.Dataset.Graph)
}

// newArtifact fills the header every artifact shares. It is called once
// the experiment's world exists, so the env block's heap figures
// approximate the working set the rows were measured against.
func newArtifact(experiment, dataset string, g *kg.Graph) *Artifact {
	return &Artifact{
		Experiment: experiment,
		Dataset:    dataset,
		Scale:      fmt.Sprintf("%d nodes / %d edges", g.NumNodes(), g.NumEdges()),
		Env:        CaptureEnv(),
	}
}

// SearchOptions returns the default SGQ options of this environment.
func (e *Env) SearchOptions(k int) core.Options {
	return core.Options{K: k, Tau: e.Cfg.Tau, MaxHops: e.Cfg.MaxHops}
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*Env{}
)

// Cached returns a memoized environment for the configuration (keyed by
// profile name, seed and embedding shape). Experiments and benchmarks
// share environments to avoid re-training embeddings.
func Cached(cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	key := fmt.Sprintf("%s|%d|%d|%d|%d|%d|%g|%d",
		cfg.Profile.Name, cfg.Profile.Seed, cfg.Profile.Autos,
		cfg.Embed.Dim, cfg.Embed.Epochs, cfg.Embed.Seed, cfg.Tau, cfg.MaxHops)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if e, ok := cache[key]; ok {
		return e, nil
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	cache[key] = e
	return e, nil
}
