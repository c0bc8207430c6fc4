package bench

import "testing"

// TestRunBatchShape runs the batch-sharing experiment end to end and
// checks its shape, counters and accounting: the shared configuration
// actually shares (sub_hits > 0 on an overlapping workload), the
// independent configuration never does, and every item is accounted for.
// The QPS/p50 ratios are recorded in the artifact, not asserted — they
// compare two wall-clock timings. Skipped in -short mode (the environment
// trains an embedding).
func TestRunBatchShape(t *testing.T) {
	art := run(t, "batch")
	checkWritten(t, art)
	if len(art.Rows) != 2 {
		t.Fatalf("batch rows = %d, want 2", len(art.Rows))
	}
	for _, r := range art.Rows {
		if r.Sample == nil || r.Sample.P50Us <= 0 || r.Sample.QPS <= 0 || r.Sample.Ops == 0 || r.Sample.Errors != 0 {
			t.Errorf("%s: degenerate sample: %+v", r.Name, r.Sample)
		}
		if r.Values["item_qps"] <= 0 || r.Values["requests"] != float64(r.Sample.Ops)*r.Values["batch_size"] {
			t.Errorf("%s: item accounting off: %v", r.Name, r.Values)
		}
	}

	independent := row(t, art, "batch", "independent").Values
	if independent["sub_hits"] != 0 || independent["sub_misses"] != 0 {
		t.Errorf("disabled sharing still counted: %v", independent)
	}
	shared := row(t, art, "batch", "shared").Values
	if shared["sub_hits"] == 0 {
		t.Errorf("overlapping workload shared no sub-searches: %v", shared)
	}
	if shared["sub_misses"] == 0 {
		t.Errorf("shared configuration never built a sub-search: %v", shared)
	}
	// Both configurations disable the result cache, so every item either
	// runs the pipeline or joins an identical in-flight item of its own
	// batch (singleflight).
	if shared["pipeline_runs"]+shared["flight_shared"] != shared["requests"] {
		t.Errorf("shared accounting: runs %v + flight-shared %v != requests %v",
			shared["pipeline_runs"], shared["flight_shared"], shared["requests"])
	}
	if shared["qps_gain"] <= 0 || shared["p50_speedup"] <= 0 {
		t.Fatalf("gains not recorded: %v", shared)
	}
}
