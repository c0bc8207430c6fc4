package bench

import "testing"

// TestRunServeShape runs the serving-layer experiment end to end and
// checks the acceptance properties: the repeated-query workload shows a
// ≥5x p50 improvement from the warm result cache, and the burst workload
// collapses its 32 identical requests to (nearly) one pipeline execution.
// Skipped in -short mode (the environment trains an embedding).
func TestRunServeShape(t *testing.T) {
	art := run(t, "serve")
	checkWritten(t, art)
	if len(art.Rows) != 4 {
		t.Fatalf("serve rows = %d, want 4", len(art.Rows))
	}
	for _, r := range art.Rows {
		if r.Sample == nil || r.Sample.P50Us <= 0 || r.Sample.QPS <= 0 || r.Sample.Errors != 0 {
			t.Errorf("%s: degenerate sample: %+v", r.Name, r.Sample)
		}
	}

	bare := row(t, art, "serve", "repeated-query (bare engine)")
	repeated := row(t, art, "serve", "repeated-query")
	if repeated.Values["speedup"] < 5 {
		t.Errorf("repeated-query warm-cache speedup = %.1fx, want >= 5x (p50 %0.f µs vs bare %.0f µs)",
			repeated.Values["speedup"], repeated.Sample.P50Us, bare.Sample.P50Us)
	}
	if repeated.Values["result_hits"] == 0 || repeated.Values["pipeline_runs"] != 1 {
		t.Errorf("repeated-query cache counters off: %v", repeated.Values)
	}

	zipf := row(t, art, "serve", "zipf-mixed")
	if zipf.Sample.Clients != 8 || zipf.Sample.Ops != 800 {
		t.Errorf("zipf ran %d ops from %d clients, want 800 from 8", zipf.Sample.Ops, zipf.Sample.Clients)
	}
	if zipf.Values["result_hits"] == 0 {
		t.Errorf("zipf workload never hit the cache: %v", zipf.Values)
	}
	if zipf.Values["pipeline_runs"]+zipf.Values["result_hits"]+zipf.Values["flight_shared"] < float64(zipf.Sample.Ops) {
		t.Errorf("zipf accounting: %v < %d requests", zipf.Values, zipf.Sample.Ops)
	}

	// All 32 identical requests are answered by at most a couple of
	// pipeline executions (requests that arrive after the leader published
	// count as cache hits, not flights — both avoid re-running).
	burst := row(t, art, "serve", "burst-identical")
	if burst.Sample.Ops != 32 || burst.Values["pipeline_runs"] > 2 {
		t.Errorf("burst of %d collapsed to %v pipeline runs, want 32 and <= 2", burst.Sample.Ops, burst.Values["pipeline_runs"])
	}
}
