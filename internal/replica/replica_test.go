package replica

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"semkg/internal/core"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/serve"
)

// buildFn is the engine factory both ends use: hand-crafted predicate
// vectors (no training), with a fixed fallback direction for predicates
// outside the "trained" set — the serve-layer test convention.
func buildFn() func(*kg.Graph) (*core.Engine, error) {
	vecs := map[string]embed.Vector{
		"assembly":        {1.00, 0.05, 0.02},
		"manufacturer":    {0.95, 0.20, 0.05},
		"country":         {0.90, 0.10, 0.30},
		"locationCountry": {0.90, 0.12, 0.28},
	}
	return func(g *kg.Graph) (*core.Engine, error) {
		names := g.Predicates()
		ordered := make([]embed.Vector, len(names))
		for i, n := range names {
			if v, ok := vecs[n]; ok {
				ordered[i] = v
			} else {
				ordered[i] = embed.Vector{0.30, 0.90, 0.30}
			}
		}
		sp, err := embed.NewSpace(names, ordered)
		if err != nil {
			return nil, err
		}
		return core.NewEngine(g, sp, nil)
	}
}

// newServe builds a serving engine over the motivating-example world.
func newServe(t *testing.T) *serve.Engine {
	t.Helper()
	b := kg.NewBuilder(16, 32)
	ger := b.AddNode("Germany", "Country")
	munich := b.AddNode("Munich", "City")
	b.AddEdge(munich, ger, "country")
	b.AddEdge(b.AddNode("BMW_320", "Automobile"), ger, "assembly")
	b.AddEdge(b.AddNode("BMW_Z4", "Automobile"), munich, "assembly")
	g := b.Build()
	eng, err := buildFn()(g)
	if err != nil {
		t.Fatal(err)
	}
	return serve.New(eng, serve.Config{Build: buildFn()})
}

// newFollowerServe builds the empty serving engine a fresh -follow
// process starts with.
func newFollowerServe(t *testing.T) *serve.Engine {
	t.Helper()
	eng, err := buildFn()(kg.Empty())
	if err != nil {
		t.Fatal(err)
	}
	return serve.New(eng, serve.Config{Build: buildFn()})
}

func startPrimary(t *testing.T, p *Primary) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/v1/replicate", p)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// commitTriples commits one delta of triples through the primary.
func commitTriples(t *testing.T, p *Primary, triples ...[3]string) serve.ApplyInfo {
	t.Helper()
	d := p.Serve().NewDelta()
	for _, tr := range triples {
		if err := d.ApplyTriple(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	info, err := p.Commit(d)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func graphSnapshot(t *testing.T, e *serve.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := kg.WriteSnapshot(&buf, e.Engine().Graph()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertConverged(t *testing.T, f *Follower, p *Primary) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.WaitSynced(ctx, p.Head()); err != nil {
		t.Fatalf("follower never reached generation %d: %v (stats %+v)",
			p.Head(), err, f.Stats())
	}
	if !bytes.Equal(graphSnapshot(t, f.Serve()), graphSnapshot(t, p.Serve())) {
		t.Fatal("follower graph differs from primary's")
	}
}

// TestFollowerBootstrapAndLiveTail: a fresh follower snapshots in, then
// tails live commits, converging to byte-identical graphs at each wait.
func TestFollowerBootstrapAndLiveTail(t *testing.T) {
	p := NewPrimary(newServe(t), Config{Advertise: "http://primary.test"})
	defer p.Close()
	commitTriples(t, p, [3]string{"Audi_TT", "assembly", "Germany"})
	ts := startPrimary(t, p)

	f := NewFollower(newFollowerServe(t), FollowerConfig{Source: ts.URL})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)

	assertConverged(t, f, p)
	st := f.Stats()
	if st.Resyncs != 1 {
		t.Fatalf("bootstrap resyncs = %d, want 1", st.Resyncs)
	}
	if st.Primary != "http://primary.test" {
		t.Fatalf("advertised primary = %q", st.Primary)
	}

	// Live tail: new commits arrive without another resync.
	commitTriples(t, p,
		[3]string{"BMW_X6", kg.TypePredicate, "Automobile"},
		[3]string{"BMW_X6", "manufacturer", "BMW_Co"})
	commitTriples(t, p, [3]string{"Clio", "assembly", "France"})
	assertConverged(t, f, p)
	if st := f.Stats(); st.Resyncs != 1 {
		t.Fatalf("live tail resyncs = %d, want still 1", st.Resyncs)
	}
	if st := f.Stats(); st.Lag != 0 {
		t.Fatalf("lag after convergence = %d", st.Lag)
	}
}

// TestFollowerResumesAfterCompaction: a follower that reconnects from a
// generation the primary has compacted away takes the snapshot fallback
// and still converges.
func TestFollowerResumesAfterCompaction(t *testing.T) {
	// A log budget of 4 statements compacts after nearly every commit.
	p := NewPrimary(newServe(t), Config{MaxLogStatements: 4})
	defer p.Close()
	ts := startPrimary(t, p)

	f := NewFollower(newFollowerServe(t), FollowerConfig{Source: ts.URL})
	ctx, cancel := context.WithCancel(context.Background())
	go f.Run(ctx)
	assertConverged(t, f, p)
	cancel() // follower offline

	for i := 0; i < 8; i++ {
		commitTriples(t, p, [3]string{fmt.Sprintf("E%d", i), "assembly", "Germany"})
	}
	if p.Floor() <= 1 {
		t.Fatalf("floor = %d, compaction never ran", p.Floor())
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go f.Run(ctx2)
	assertConverged(t, f, p)
	if st := f.Stats(); st.Resyncs < 2 {
		t.Fatalf("resyncs = %d, want a compaction-forced snapshot resync", st.Resyncs)
	}
}

// TestPromotion: a synced follower promotes to primary under a fresh
// epoch; a follower of the old epoch that reconnects to the promoted
// node detects the epoch change and snapshot-resyncs to it.
func TestPromotion(t *testing.T) {
	p := NewPrimary(newServe(t), Config{})
	ts := startPrimary(t, p)
	commitTriples(t, p, [3]string{"Audi_TT", "assembly", "Germany"})

	// Two followers tail the primary.
	f1 := NewFollower(newFollowerServe(t), FollowerConfig{Source: ts.URL})
	f2 := NewFollower(newFollowerServe(t), FollowerConfig{Source: ts.URL})
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go f1.Run(ctx1)
	go f2.Run(ctx2)
	assertConverged(t, f1, p)
	assertConverged(t, f2, p)

	// The primary dies; f1 is promoted.
	p.Close()
	ts.Close()
	cancel1()
	promoted := f1.Promote(Config{})
	defer promoted.Close()
	if promoted.Epoch() == p.Epoch() {
		t.Fatal("promotion reused the dead primary's epoch")
	}
	ts2 := startPrimary(t, promoted)

	// Writes continue on the promoted primary.
	commitTriples(t, promoted, [3]string{"BMW_X6", "assembly", "Germany"})

	// f2 re-points at the promoted node (in semkgd this is a config
	// change or a discovery hop via the advertised URL).
	f2.SetSource(ts2.URL)
	assertConverged(t, f2, promoted)
	if st := f2.Stats(); st.Epoch != promoted.Epoch() {
		t.Fatalf("follower epoch %q, want promoted %q", st.Epoch, promoted.Epoch())
	}
	if st := f2.Stats(); st.Resyncs < 2 {
		t.Fatalf("resyncs = %d, want epoch-change snapshot resync", st.Resyncs)
	}
}

// TestBackoffSchedule: the reconnect schedule doubles from Min to Max
// with jitter bounded in [d/2, d].
func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Min: 100 * time.Millisecond, Max: 800 * time.Millisecond,
		Rand: rand.New(rand.NewSource(1))}
	for attempt, want := range map[int]time.Duration{
		1: 100 * time.Millisecond,
		2: 200 * time.Millisecond,
		3: 400 * time.Millisecond,
		4: 800 * time.Millisecond,
		9: 800 * time.Millisecond, // capped
	} {
		for i := 0; i < 50; i++ {
			d := b.Delay(attempt)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
}

// TestCommitNeverLogsEmptyDeltas: a no-op delta (re-declaring existing
// facts) records statements but does not bump the generation — and must
// not mint a duplicate log entry.
func TestCommitNeverLogsEmptyDeltas(t *testing.T) {
	p := NewPrimary(newServe(t), Config{})
	defer p.Close()
	head := p.Head()
	d := p.Serve().NewDelta()
	if err := d.ApplyTriple("BMW_320", kg.TypePredicate, "Automobile"); err != nil {
		t.Fatal(err)
	}
	info, err := p.Commit(d)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != head {
		t.Fatalf("no-op commit bumped generation to %d", info.Generation)
	}
	p.mu.Lock()
	n := len(p.log)
	p.mu.Unlock()
	if n != 0 {
		t.Fatalf("no-op commit appended %d log records", n)
	}
}
