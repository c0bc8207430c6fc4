package bench

import (
	"context"
	"strings"
	"testing"
)

// TestRunDistShardShape is the measured-distributed acceptance smoke on a
// micro world with in-process shard servers: every deployment row carries
// real traffic through the HTTP coordinator (no local fallbacks, no
// errors), the gain ratios are computed against the 1-shard distributed
// run, and the section lands in the shard artifact. The real numbers
// come from `kgbench -exp shard` with subprocess servers on the 1M-node
// world.
func TestRunDistShardShape(t *testing.T) {
	cfg := ShardConfig{Distributed: distShardConfig(true)}
	cfg.Distributed.Nodes = 4000
	cfg.Distributed.Agents = 3
	cfg.Distributed.DistinctQueries = 16
	cfg.Distributed.WarmupMs = 50
	cfg.Distributed.MeasureMs = 200

	art := &Artifact{Experiment: "shard", Dataset: "micro", Scale: "micro", Env: CaptureEnv()}
	if err := runDistShard(context.Background(), art, &cfg.Distributed, &InprocLauncher{}); err != nil {
		t.Fatal(err)
	}
	art.Config = cfg
	checkWritten(t, art)

	if !strings.Contains(cfg.Distributed.Launcher, "in-process") {
		t.Fatalf("launcher label = %q, want the in-process stand-in", cfg.Distributed.Launcher)
	}
	world := row(t, art, "distributed", "world").Values
	if world["nodes"] != 4000 || world["heap_alloc_bytes"] == 0 || world["gomaxprocs"] != float64(cfg.Distributed.CoordinatorGOMAXPROCS) {
		t.Fatalf("world row incomplete: %v", world)
	}
	if local := row(t, art, "distributed", "local (in-process engine)"); local.Sample.QPS <= 0 {
		t.Fatalf("no local baseline measured: %+v", local.Sample)
	}
	for i, n := range []string{"1", "2", "4"} {
		r := row(t, art, "distributed", n+" shard servers")
		if r.Sample.Ops <= 0 || r.Sample.QPS <= 0 {
			t.Fatalf("%s: no traffic recorded %+v", r.Name, r.Sample)
		}
		if r.Sample.Errors > 0 {
			t.Fatalf("%s: %d request errors against a healthy deployment", r.Name, r.Sample.Errors)
		}
		// Every request must have gone through the deployment: a fallback
		// (or a cache-served loop) means the row measured the local engine
		// wearing a costume.
		if r.Values["dist_searches"] < float64(r.Sample.Ops-r.Sample.Shed) || r.Values["local_fallbacks"] != 0 {
			t.Fatalf("%s: %v dist searches for %d requests, %v fallbacks — load did not exercise the coordinator",
				r.Name, r.Values["dist_searches"], r.Sample.Ops, r.Values["local_fallbacks"])
		}
		if r.Values["shard_file_bytes"] <= 0 || r.Values["partition_ms"] < 0 {
			t.Fatalf("%s: missing deployment costs %v", r.Name, r.Values)
		}
		_, gained := r.Values["qps_gain_vs_1"]
		if gained != (i > 0) || (i > 0 && r.Values["p50_gain_vs_1"] <= 0) {
			t.Fatalf("%s: gain ratios vs the 1-shard row are off: %v", r.Name, r.Values)
		}
	}
}
