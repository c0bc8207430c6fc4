package bench

import "testing"

// TestRunReplicaShape is the replica-experiment acceptance smoke: every
// catch-up point recovers to a byte-identical graph through a reconnect,
// and the failover section records a measured (finite, non-degenerate)
// QPS dip with traffic on both sides of the kill.
func TestRunReplicaShape(t *testing.T) {
	art := run(t, "replica")
	checkWritten(t, art)
	catchup := section(art, "catch-up")
	if len(catchup) == 0 {
		t.Fatal("no catch-up measurements")
	}
	for _, c := range catchup {
		if c.Values["converged"] != 1 {
			t.Fatalf("catch-up %s: follower did not converge", c.Name)
		}
		if c.Values["recovery_ms"] <= 0 {
			t.Fatalf("catch-up %s: non-measured recovery %v ms", c.Name, c.Values["recovery_ms"])
		}
		if c.Values["reconnects"] == 0 {
			t.Fatalf("catch-up %s: recovered without any reconnect — the fault never fired", c.Name)
		}
	}
	fo := row(t, art, "failover", "live clients through kill + promotion")
	if fo.Values["qps_before"] <= 0 || fo.Values["qps_after"] <= 0 {
		t.Fatalf("failover has no live traffic: %v", fo.Values)
	}
	if fo.Values["dip_ms"] <= 0 {
		t.Fatalf("dip %v ms — the outage window was never measured", fo.Values["dip_ms"])
	}
	if fo.Sample.Errors == 0 || fo.Sample.Errors >= fo.Sample.Ops {
		t.Fatalf("%d of %d requests failed: the clients never ran through the outage and back", fo.Sample.Errors, fo.Sample.Ops)
	}
	timeline := section(art, "failover timeline")
	ok := 0.0
	for _, b := range timeline {
		ok += b.Values["ok_requests"]
	}
	if len(timeline) == 0 || fo.Values["bucket_ms"] <= 0 || int(ok) != fo.Sample.Ops-fo.Sample.Errors {
		t.Fatalf("timeline of %d buckets holds %v successes, sample has %d", len(timeline), ok, fo.Sample.Ops-fo.Sample.Errors)
	}
}
