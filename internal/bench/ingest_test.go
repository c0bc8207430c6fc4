package bench

import "testing"

// TestRunIngestShape runs the storage-layer experiment end to end and
// checks its shape and counters: both cold-start paths measured, commit
// latency measured per delta size, and the live workload completing
// queries, error-free, while generations swap. The snapshot-vs-TSV
// speedup is recorded in the artifact (BENCH_ingest.json, committed:
// 11x), not asserted — it is a ratio of two timings. Skipped in -short
// mode (the environment trains an embedding).
func TestRunIngestShape(t *testing.T) {
	art := run(t, "ingest")
	checkWritten(t, art)
	tsv, snap := row(t, art, "cold-start", "tsv parse + index build").Values, row(t, art, "cold-start", "snapshot").Values
	if tsv["load_us"] <= 0 || snap["load_us"] <= 0 || tsv["bytes"] <= 0 || snap["bytes"] <= 0 {
		t.Fatalf("non-positive load measurements: tsv %v, snapshot %v", tsv, snap)
	}
	if snap["speedup"] <= 0 {
		t.Errorf("load speedup not recorded: %v", snap)
	}
	commits := section(art, "commit")
	if len(commits) == 0 {
		t.Fatal("no commit measurements")
	}
	for _, c := range commits {
		if c.Values["commit_us"] <= 0 || c.Values["new_nodes"] <= 0 {
			t.Errorf("commit %s: degenerate measurement %v", c.Name, c.Values)
		}
	}
	live := row(t, art, "live", "search-while-ingest")
	if live.Sample.Ops == 0 || live.Sample.QPS <= 0 || live.Sample.Errors != 0 {
		t.Errorf("live workload made no clean progress: %+v", live.Sample)
	}
	if live.Values["commits"] == 0 || live.Values["generation"] == 0 {
		t.Errorf("live workload published no generations: %v", live.Values)
	}
}
