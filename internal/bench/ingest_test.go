package bench

import "testing"

// TestRunIngestShape runs the storage-layer experiment end to end and
// checks its shape and counters: both cold-start paths measured, commit
// latency measured per delta size, the 100k-node commit chain measured
// over several chains with its layer merges counted, and the live workload completing
// queries, error-free, while generations swap. The snapshot-vs-TSV
// speedup is recorded in the artifact (BENCH_ingest.json, committed:
// 8x), not asserted — it is a ratio of two timings. Skipped in -short
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
	chain := row(t, art, "commit-chain", "100000 nodes").Values
	if chain["commits"] != 100 || chain["chains"] < 3 || chain["mean_commit_us"] <= 0 || chain["max_commit_us"] < chain["max_chain_mean_us"] ||
		chain["alloc_mb_per_commit"] <= 0 {
		t.Errorf("commit chain: degenerate measurement %v", chain)
	}
	if chain["min_chain_mean_us"] > chain["mean_commit_us"] || chain["mean_commit_us"] > chain["max_chain_mean_us"] {
		t.Errorf("commit chain: median chain mean outside the chains' range: %v", chain)
	}
	// 100 commits that each add names grow the layer stack like a binary
	// counter: every commit but those setting a new bit merges.
	if chain["merges"] != 97 || chain["name_layers"] != 4 {
		t.Errorf("commit chain: %v merges and %v name layers, want 97 and 4", chain["merges"], chain["name_layers"])
	}
	live := row(t, art, "live", "search-while-ingest")
	if live.Sample.Ops == 0 || live.Sample.QPS <= 0 || live.Sample.Errors != 0 {
		t.Errorf("live workload made no clean progress: %+v", live.Sample)
	}
	if live.Values["commits"] == 0 || live.Values["generation"] == 0 {
		t.Errorf("live workload published no generations: %v", live.Values)
	}
}
