package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRunDistShardShape is the measured-distributed acceptance smoke on a
// micro world with in-process shard servers: every deployment row carries
// real traffic through the HTTP coordinator (no local fallbacks, no
// errors), the gain ratios are computed against the 1-shard distributed
// run, and the section renders inside the shard artifact. The real
// numbers come from `kgbench -exp shard` with subprocess servers on the
// 1M-node world.
func TestRunDistShardShape(t *testing.T) {
	cfg := distShardConfig(true)
	cfg.Nodes = 4000
	cfg.Agents = 3
	cfg.DistinctQueries = 16
	cfg.WarmupMs = 50
	cfg.MeasureMs = 200

	sec, err := runDistShard(cfg, &InprocLauncher{})
	if err != nil {
		t.Fatal(err)
	}

	if !strings.Contains(sec.Launcher, "in-process") {
		t.Fatalf("launcher label = %q, want the in-process stand-in", sec.Launcher)
	}
	if sec.LocalQPS <= 0 {
		t.Fatalf("no local baseline measured: %+v", sec)
	}
	if got := len(sec.Rows); got != 3 {
		t.Fatalf("distributed rows = %d, want 3 (1, 2, 4 shards)", got)
	}
	for i, r := range sec.Rows {
		if r.Shards != []int{1, 2, 4}[i] {
			t.Fatalf("row %d shards = %d", i, r.Shards)
		}
		if r.Requests <= 0 || r.QPS <= 0 {
			t.Fatalf("row %d: no traffic recorded %+v", i, r)
		}
		if r.Errors > 0 {
			t.Fatalf("row %d: %d request errors against a healthy deployment", i, r.Errors)
		}
		// Every request must have gone through the deployment: a fallback
		// (or a cache-served loop) means the row measured the local engine
		// wearing a costume.
		if r.DistSearches < uint64(r.Requests) || r.Fallbacks != 0 {
			t.Fatalf("row %d: %d dist searches for %d requests, %d fallbacks — load did not exercise the coordinator",
				i, r.DistSearches, r.Requests, r.Fallbacks)
		}
		if r.ShardFileBytes <= 0 || r.PartitionMs < 0 {
			t.Fatalf("row %d: missing deployment costs %+v", i, r)
		}
	}
	if sec.Rows[0].QPSGainVs1 != 0 {
		t.Fatalf("1-shard row carries a gain vs itself: %+v", sec.Rows[0])
	}
	for _, r := range sec.Rows[1:] {
		if r.QPSGainVs1 <= 0 || r.P50GainVs1 <= 0 {
			t.Fatalf("%d-shard row missing gain ratios: %+v", r.Shards, r)
		}
	}
	if sec.CPUs < 1 || sec.GoVersion == "" {
		t.Fatalf("env block incomplete: %+v", sec.EnvInfo)
	}
	if !strings.Contains(sec.Methodology, "measured") {
		t.Fatalf("methodology does not declare itself measured: %q", sec.Methodology)
	}

	// The section must survive the artifact round trip and render as part
	// of the shard table.
	res := &ShardResult{Distributed: sec}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back ShardResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Distributed == nil || back.Distributed.Config != cfg {
		t.Fatalf("distributed section did not round-trip")
	}
	tbl := res.Render()
	if tbl == nil {
		t.Fatal("Render returned nil")
	}
	found := false
	for _, row := range tbl.Rows {
		for _, cell := range row {
			if strings.Contains(cell, "(dist)") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("rendered shard table has no measured distributed rows")
	}
}
