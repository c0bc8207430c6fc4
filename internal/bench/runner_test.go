package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"semkg/internal/serve"
)

func TestHist(t *testing.T) {
	var h Hist
	if h.N() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatalf("empty hist: n=%d p50=%v mean=%v", h.N(), h.Quantile(0.5), h.Mean())
	}
	h.Add(7 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7*time.Millisecond {
			t.Fatalf("single sample q=%v: %v", q, got)
		}
	}
	if h.Mean() != 7*time.Millisecond {
		t.Fatalf("single sample mean: %v", h.Mean())
	}

	// 1..100 ms added out of order: nearest-rank-below quantiles.
	var n Hist
	for i := 100; i >= 1; i-- {
		n.Add(time.Duration(i) * time.Millisecond)
	}
	for q, want := range map[float64]time.Duration{0: 1, 0.5: 50, 0.95: 95, 0.99: 99, 1: 100} {
		if got := n.Quantile(q); got != want*time.Millisecond {
			t.Errorf("q=%v: %v, want %vms", q, got, int(want))
		}
	}
	if n.Mean() != 50500*time.Microsecond {
		t.Errorf("mean %v, want 50.5ms", n.Mean())
	}

	// Merge after a quantile was taken (the sorted state must not stick).
	n.Merge(&h)
	var big Hist
	big.Add(time.Second)
	n.Merge(&big)
	if n.N() != 102 || n.Quantile(1) != time.Second || n.Quantile(0) != time.Millisecond {
		t.Errorf("after merge: n=%d min=%v max=%v", n.N(), n.Quantile(0), n.Quantile(1))
	}

	fail := errors.New("boom")
	if err := n.Time(func() error { return fail }); err != fail || n.N() != 102 {
		t.Errorf("Time recorded a failed call: err=%v n=%d", err, n.N())
	}
}

func TestDriveRequests(t *testing.T) {
	const clients, each = 4, 25
	seen := make([][]int, clients)
	s := Drive(context.Background(), Load{Clients: clients, Requests: each}, func(_ context.Context, c, i int) error {
		seen[c] = append(seen[c], i) // racy unless every client has its own index
		return nil
	})
	if s.Ops != clients*each || s.Hist.N() != clients*each || s.Errors != 0 || s.Shed != 0 || s.Err != nil {
		t.Fatalf("sample %+v", s)
	}
	if s.Clients != clients || s.QPS <= 0 || s.P50Us <= 0 || s.P99Us < s.P50Us || s.WallMs <= 0 {
		t.Fatalf("summary %+v", s)
	}
	for c, is := range seen {
		if len(is) != each {
			t.Fatalf("client %d ran %d ops, want %d", c, len(is), each)
		}
		for want, got := range is {
			if got != want {
				t.Fatalf("client %d op %d saw counter %d", c, want, got)
			}
		}
	}
}

func TestDriveAccounting(t *testing.T) {
	fail := errors.New("boom")
	s := Drive(context.Background(), Load{Clients: 2, Requests: 9}, func(_ context.Context, _, i int) error {
		switch i % 3 {
		case 1:
			return fail
		case 2:
			return &serve.OverloadedError{RetryAfter: time.Microsecond}
		}
		return nil
	})
	if s.Ops != 18 || s.Errors != 6 || s.Shed != 6 || s.Hist.N() != 6 {
		t.Fatalf("ops=%d errors=%d shed=%d ok=%d, want 18/6/6/6", s.Ops, s.Errors, s.Shed, s.Hist.N())
	}
	if !errors.Is(s.Err, fail) {
		t.Fatalf("Err = %v, want the first non-shed error", s.Err)
	}
}

func TestDriveWarmupExcluded(t *testing.T) {
	var total atomic.Int64
	s := Drive(context.Background(), Load{Clients: 2, Warmup: 40 * time.Millisecond, Measure: 40 * time.Millisecond},
		func(context.Context, int, int) error {
			total.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		})
	if s.Ops == 0 {
		t.Fatal("nothing recorded in the measure window")
	}
	// About half the operations ran during warm-up; all of them counting
	// would put Ops at total.
	if warm := int(total.Load()) - s.Ops; warm < s.Ops/4 {
		t.Fatalf("%d of %d ops recorded: warm-up leaked into the sample", s.Ops, total.Load())
	}
	if s.WallMs < 35 || s.WallMs > 200 {
		t.Fatalf("recorded window %.1f ms, want ~40", s.WallMs)
	}

	// In count mode the warm-up ops do not eat into Requests.
	s = Drive(context.Background(), Load{Warmup: 10 * time.Millisecond, Requests: 5},
		func(context.Context, int, int) error { time.Sleep(time.Millisecond); return nil })
	if s.Ops != 5 {
		t.Fatalf("count mode after warm-up recorded %d ops, want 5", s.Ops)
	}
}

func TestDriveCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Sample, 1)
	go func() {
		// Neither Measure nor Requests: recorded until cancelled. The op
		// blocks on ctx, so only a prompt cancel path lets Drive return.
		done <- Drive(ctx, Load{Clients: 3}, func(ctx context.Context, _, i int) error {
			if i < 2 {
				return nil
			}
			<-ctx.Done()
			return ctx.Err()
		})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case s := <-done:
		if s.Ops != 6 || s.Errors != 0 || s.Err != nil {
			t.Fatalf("interrupted ops were counted: %+v", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drive did not return after cancel")
	}

	// A long warm-up and window are cut short too.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	Drive(ctx, Load{Warmup: time.Hour, Measure: time.Hour}, func(context.Context, int, int) error { return nil })
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled Drive sat out its phases")
	}
}

func TestSampleMerge(t *testing.T) {
	op := func(context.Context, int, int) error { time.Sleep(time.Millisecond); return nil }
	var pooled Sample
	for i := 0; i < 3; i++ {
		pooled.Merge(Drive(context.Background(), Load{Requests: 2}, op))
	}
	if pooled.Ops != 6 || pooled.Hist.N() != 6 || pooled.Clients != 1 {
		t.Fatalf("pooled %+v", pooled)
	}
	// QPS is successes over the summed busy time, so it cannot exceed the
	// 1000/s a 1 ms operation allows.
	if pooled.QPS <= 0 || pooled.QPS > 1000 || pooled.WallMs < 6 {
		t.Fatalf("pooled qps %.0f over %.2f ms", pooled.QPS, pooled.WallMs)
	}
}

// decodeArtifact is the strict decoder every artifact, committed or
// freshly written, must pass: unknown fields anywhere in the schema fail.
func decodeArtifact(t *testing.T, data []byte) *Artifact {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var art Artifact
	if err := dec.Decode(&art); err != nil {
		t.Fatalf("artifact does not strict-decode: %v", err)
	}
	if e, ok := Lookup(art.Experiment); !ok || e.Paper {
		t.Fatalf("artifact names experiment %q, not an artifact experiment of the registry", art.Experiment)
	}
	if art.Dataset == "" || art.Scale == "" || len(art.Rows) == 0 {
		t.Fatalf("artifact header incomplete: %+v", art)
	}
	env := art.Env
	if env.GoVersion == "" || env.GOOS == "" || env.GOARCH == "" || env.When == "" || env.CPUs < 1 || env.GOMAXPROCS < 1 {
		t.Fatalf("env block incomplete: %+v", env)
	}
	for i, r := range art.Rows {
		if r.Section == "" || r.Name == "" || (r.Sample == nil && len(r.Values) == 0) {
			t.Fatalf("row %d carries nothing: %+v", i, r)
		}
	}
	return &art
}

// checkWritten round-trips a freshly measured artifact through WriteJSON
// and the strict decoder, and holds it to what only a fresh run can
// promise: heap figures in the env block and no frozen rows.
func checkWritten(t *testing.T, art *Artifact) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_"+art.Experiment+".json")
	if err := art.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back := decodeArtifact(t, data)
	if len(back.Rows) != len(art.Rows) {
		t.Fatalf("round trip kept %d of %d rows", len(back.Rows), len(art.Rows))
	}
	if back.Env.HeapAllocBytes == 0 || back.Env.TotalAllocBytes == 0 {
		t.Fatalf("fresh artifact without heap figures: %+v", back.Env)
	}
	for _, r := range back.Rows {
		if r.Frozen {
			t.Fatalf("a run produced frozen row %q", r.Name)
		}
	}
	if tables := art.Render(); len(tables) == 0 || tables[0].String() == "" {
		t.Fatal("empty render")
	}
}

// TestCommittedArtifacts holds every BENCH_*.json in the repository root
// to the one schema.
func TestCommittedArtifacts(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed artifacts found — wrong working directory?")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			art := decodeArtifact(t, data)
			if want := "BENCH_" + art.Experiment + ".json"; filepath.Base(path) != want {
				t.Fatalf("experiment %q committed as %s, want %s", art.Experiment, filepath.Base(path), want)
			}
		})
	}
}

// row finds a row by section and name.
func row(t *testing.T, art *Artifact, section, name string) Row {
	t.Helper()
	for _, r := range art.Rows {
		if r.Section == section && r.Name == name {
			return r
		}
	}
	t.Fatalf("artifact %s has no row %s/%s", art.Experiment, section, name)
	return Row{}
}

// section returns the rows of one section, in order.
func section(art *Artifact, name string) []Row {
	var out []Row
	for _, r := range art.Rows {
		if r.Section == name {
			out = append(out, r)
		}
	}
	return out
}
