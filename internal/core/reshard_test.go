package core

import (
	"context"
	"testing"
	"time"
)

// TestReshardingServesWhileBuilding is the ingest-latency regression
// test for semkgd -shards: NewResharding must return immediately and
// serve correct answers from the base engine while the partition —
// deterministically held back by the Gate hook — is still building.
// Commit latency therefore cannot scale with repartition cost.
func TestReshardingServesWhileBuilding(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 3)
	gate := make(chan struct{})
	ready := make(chan ShardedStats, 1)
	r := NewResharding(e, nil, ReshardConfig{
		Shard:   ShardConfig{Shards: 3},
		Gate:    func() { <-gate },
		OnReady: func(st ShardedStats) { ready <- st },
		OnError: func(err error) { t.Errorf("background partition failed: %v", err) },
	})
	if d := r.Deployment(); !d.Resharding || d.Shards != 0 {
		t.Fatalf("deployment %+v while the partition gate is held, want resharding", d)
	}

	q := shardedWorkload(ds)[1]
	opts := Options{K: 5, Tau: 0.5, MaxHops: 3}
	want, err := e.Search(ctx, q.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Search(ctx, q.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertTopKEquivalent(t, q.Name+"/pre-upgrade", got, want)

	// A pre-upgrade plan belongs to the resharding engine and stays
	// runnable before and after the upgrade.
	prePlan, err := r.Compile(q.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertForeignPlan(t, e, prePlan)

	close(gate)
	select {
	case st := <-ready:
		if st.Shards != 3 {
			t.Fatalf("OnReady reported %d shards, want 3", st.Shards)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("background partition never became ready")
	}
	if d := r.Deployment(); d.Resharding || d.Shards != 3 || d.Sharded == nil {
		t.Fatalf("deployment %+v after OnReady fired, want 3 shards", d)
	}

	got, err = r.Search(ctx, q.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertTopKEquivalent(t, q.Name+"/post-upgrade", got, want)

	// The pre-upgrade plan is projected into the partition at run time and
	// scatters over all three shards...
	res, err := r.SearchPlan(ctx, prePlan, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertTopKEquivalent(t, q.Name+"/pre-plan-post-upgrade", res, want)
	if len(res.ShardEffort) != 3 {
		t.Fatalf("pre-upgrade plan ran over %d shards after the upgrade, want 3", len(res.ShardEffort))
	}

	// ...and so do new compilations, which the engine owns.
	postPlan, err := r.Compile(q.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertForeignPlan(t, e, postPlan)
	res, err = r.SearchPlan(ctx, postPlan, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertTopKEquivalent(t, q.Name+"/sharded-plan", res, want)
}

// TestReshardingInheritsStats: the upgraded engine carries the previous
// sharded generation's monotone counters, exactly like a synchronous
// rebuild.
func TestReshardingInheritsStats(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 17)
	prev := shardedOver(t, e, 2)
	q := shardedWorkload(ds)[0]
	opts := Options{K: 3, Tau: 0.5, MaxHops: 3}
	for i := 0; i < 3; i++ {
		if _, err := prev.Search(ctx, q.Graph, opts); err != nil {
			t.Fatal(err)
		}
	}
	prevSearches := prev.Deployment().Sharded.Searches
	if prevSearches == 0 {
		t.Fatal("previous generation counted no searches")
	}

	ready := make(chan struct{})
	r := NewResharding(e, prev, ReshardConfig{
		Shard:   ShardConfig{Shards: 2},
		OnReady: func(ShardedStats) { close(ready) },
	})
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("background partition never became ready")
	}
	if got := r.Deployment().Sharded.Searches; got < prevSearches {
		t.Fatalf("upgraded engine starts at %d searches, want >= %d (inherited)", got, prevSearches)
	}
}

// TestReshardingBuildFailure: a partition that cannot build reports
// through OnError and the engine keeps serving unsharded.
func TestReshardingBuildFailure(t *testing.T) {
	ctx := context.Background()
	ds, e := tinyWorld(t, 3)
	failed := make(chan error, 1)
	r := NewResharding(e, nil, ReshardConfig{
		Shard:   ShardConfig{Shards: -2}, // invalid: Partition rejects it
		OnError: func(err error) { failed <- err },
	})
	select {
	case <-failed:
	case <-time.After(30 * time.Second):
		t.Fatal("invalid partition never reported failure")
	}
	if d := r.Deployment(); !d.Resharding || d.Shards != 0 {
		t.Fatalf("deployment %+v after a failed partition, want still resharding", d)
	}
	q := shardedWorkload(ds)[0]
	if _, err := r.Search(ctx, q.Graph, Options{K: 3, Tau: 0.5, MaxHops: 3}); err != nil {
		t.Fatalf("unsharded serving broken after failed partition: %v", err)
	}
}
