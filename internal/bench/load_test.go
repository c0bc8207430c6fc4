package bench

import (
	"context"
	"testing"
)

// TestRunLoadShape is the load-harness acceptance smoke on a micro world:
// every section produces measured (non-zero) rows, the artifact embeds
// its configuration and environment, and the JSON round-trips through
// the strict decoder. The CI race job runs this; the real numbers come
// from `kgbench -exp load` on the 1M-node world.
func TestRunLoadShape(t *testing.T) {
	cfg := loadConfig(true)
	cfg.Nodes = 4000
	cfg.Agents = 3
	cfg.DistinctQueries = 16
	cfg.WarmupMs = 50
	cfg.MeasureMs = 200
	cfg.ColdStartReps = 1
	cfg.SteadyQueries = 4

	art, err := runLoadConfig(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkWritten(t, art)
	if art.Config != cfg {
		t.Fatalf("artifact does not embed its configuration: %+v", art.Config)
	}

	cold := section(art, "cold-start")
	if len(cold) != 6 {
		t.Fatalf("cold-start rows = %d, want 6 (serial/parallel × load, build, total)", len(cold))
	}
	for _, r := range cold {
		if r.Values["millis"] <= 0 || r.Values["workers"] < 1 {
			t.Fatalf("cold-start row %s: degenerate measurement %v", r.Name, r.Values)
		}
	}
	if total := cold[5]; total.Values["speedup_vs_serial"] <= 0 {
		t.Fatalf("cold-start total row has no speedup: %+v", total)
	}

	// One live steady-state row: the dense seed arena it used to be
	// compared against is a frozen row of the committed artifact.
	steady := section(art, "steady-state")
	if len(steady) != 1 {
		t.Fatalf("steady-state rows = %d, want 1 (A* arena + end sets)", len(steady))
	}
	if v := steady[0].Values; v["mean_us"] <= 0 || v["alloc_mb_per_query"] <= 0 || v["queries"] != float64(cfg.SteadyQueries) {
		t.Fatalf("steady row: degenerate measurement %v", v)
	}

	driver := section(art, "load")
	if len(driver) != 2 {
		t.Fatalf("driver rows = %d, want 2 (cache-served, cache-bypassed)", len(driver))
	}
	for _, r := range driver {
		if r.Sample == nil || r.Sample.Ops <= 0 || r.Sample.QPS <= 0 || r.Sample.Clients != cfg.Agents {
			t.Fatalf("driver row %s: no traffic recorded %+v", r.Name, r.Sample)
		}
		if r.Sample.Errors > 0 {
			t.Fatalf("driver row %s: %d request errors", r.Name, r.Sample.Errors)
		}
		if r.Values["heap_alloc_bytes"] == 0 {
			t.Fatalf("driver row %s: no heap stats", r.Name)
		}
	}
	// The bypassed workload must actually run the pipeline per request.
	if bypassed := driver[1]; bypassed.Values["pipeline_runs"] < float64(bypassed.Sample.Ops-bypassed.Sample.Shed) {
		t.Fatalf("cache-bypassed workload: %v pipeline runs for %d requests (%d shed)",
			bypassed.Values["pipeline_runs"], bypassed.Sample.Ops, bypassed.Sample.Shed)
	}
}
