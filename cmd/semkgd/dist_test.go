// Cross-process distributed serving tests: these boot REAL subprocess
// shard servers (the test binary re-execs itself into main via
// SEMKGD_HELPER) and prove the coordinator's answers field-identical to
// the single-process engine across shard counts, through replica kills,
// and over the full HTTP surface of a subprocess coordinator.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"semkg/internal/api"
	"semkg/internal/core"
	"semkg/internal/datagen"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/shard"
)

// TestMain doubles the test binary as the semkgd executable: with
// SEMKGD_HELPER=1 it runs the real main() over os.Args, which is how the
// subprocess tests below get true process isolation without a build step.
func TestMain(m *testing.M) {
	if os.Getenv("SEMKGD_HELPER") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// distProcWorld is a deterministic world on disk: a graph snapshot and a
// model file any helper process can load, plus the same engine in-test.
type distProcWorld struct {
	ds        *datagen.Dataset
	model     *embed.Model
	base      *core.Engine
	dir       string
	snapPath  string
	modelPath string
}

func newDistProcWorld(t *testing.T, seed int64) *distProcWorld {
	t.Helper()
	ds := datagen.Generate(datagen.Profile{
		Name: "tiny", Seed: seed,
		Countries: 4, CitiesPerCtr: 2, Companies: 12, Autos: 70,
		People: 24, Engines: 12, Clubs: 6, FillerTypes: 2, FillerPerType: 3,
	})
	rng := rand.New(rand.NewSource(seed * 31))
	names := ds.Graph.Predicates()
	rels := make([]embed.Vector, len(names))
	for i := range rels {
		v := make(embed.Vector, 8)
		for j := range v {
			v[j] = 0.1 + 0.9*rng.Float64()
		}
		rels[i] = v
	}
	model := &embed.Model{Relations: rels}
	base, err := core.BuildEngine(ds.Graph, model, ds.Library)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	w := &distProcWorld{
		ds: ds, model: model, base: base, dir: dir,
		snapPath:  filepath.Join(dir, "world.snap"),
		modelPath: filepath.Join(dir, "world.model"),
	}
	if err := kg.WriteSnapshotFile(w.snapPath, ds.Graph); err != nil {
		t.Fatal(err)
	}
	mf, err := os.Create(w.modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := embed.WriteModel(mf, model); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *distProcWorld) workload() []datagen.GenQuery {
	var qs []datagen.GenQuery
	if len(w.ds.Simple) > 2 {
		qs = append(qs, w.ds.Simple[:2]...)
	} else {
		qs = append(qs, w.ds.Simple...)
	}
	qs = append(qs, w.ds.Medium...)
	qs = append(qs, w.ds.Complex...)
	if len(qs) > 5 {
		qs = qs[:5]
	}
	return qs
}

var distProcOpts = core.Options{K: 5, Tau: 0.5, MaxHops: 3}

// helperCmd re-execs the test binary as semkgd. Stderr is captured and
// dumped only when the test fails.
func helperCmd(t *testing.T, args ...string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SEMKGD_HELPER=1")
	var logBuf bytes.Buffer
	cmd.Stderr = &logBuf
	return cmd, &logBuf
}

// saveShardFiles runs the real `semkgd -save-shards` CLI in a subprocess
// and returns the written shard file paths.
func (w *distProcWorld) saveShardFiles(t *testing.T, shards int) []string {
	t.Helper()
	dir := filepath.Join(w.dir, fmt.Sprintf("shards-%d", shards))
	cmd, logBuf := helperCmd(t, "-snapshot", w.snapPath, "-shards", fmt.Sprint(shards), "-save-shards", dir)
	if err := cmd.Run(); err != nil {
		t.Fatalf("save-shards: %v\n%s", err, logBuf)
	}
	files := make([]string, shards)
	for i := range files {
		files[i] = filepath.Join(dir, shardFileName(i, shards))
		if _, err := os.Stat(files[i]); err != nil {
			t.Fatalf("save-shards left no %s: %v", files[i], err)
		}
	}
	return files
}

// shardProc is one running subprocess shard server.
type shardProc struct {
	url string
	cmd *exec.Cmd
}

// kill terminates the process hard — the chaos tests' replica failure.
func (p *shardProc) kill() {
	_ = p.cmd.Process.Kill()
	_, _ = p.cmd.Process.Wait()
}

// startShardProc boots `semkgd -serve-shard` on an ephemeral port and
// waits for the announced address.
func startShardProc(t *testing.T, files ...string) *shardProc {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd, logBuf := helperCmd(t,
		"-serve-shard", strings.Join(files, ","),
		"-addr", "127.0.0.1:0", "-addr-file", addrFile)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &shardProc{cmd: cmd}
	t.Cleanup(func() {
		p.kill()
		if t.Failed() && logBuf.Len() > 0 {
			t.Logf("shard server %s log:\n%s", p.url, logBuf)
		}
	})
	p.url = "http://" + waitAddrFile(t, addrFile)
	return p
}

// waitAddrFile polls an -addr-file until the server announces itself.
func waitAddrFile(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		b, err := os.ReadFile(path)
		if err == nil && len(bytes.TrimSpace(b)) > 0 {
			return string(bytes.TrimSpace(b))
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server never wrote %s", path)
	return ""
}

// assertAnswersEquivalent is the cross-process twin of the core package's
// top-k equivalence check: identical score vectors, and identical answer
// entities wherever the ranking is unambiguous — entities tied with the
// k-th score may legally differ between two correct top-k sets.
func assertAnswersEquivalent(t *testing.T, name string, got, want []core.Answer) {
	t.Helper()
	const eps = 1e-9
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", name, len(got), len(want))
	}
	if len(want) == 0 {
		return
	}
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > eps {
			t.Fatalf("%s: rank %d score %v, want %v", name, i, got[i].Score, want[i].Score)
		}
	}
	kth := want[len(want)-1].Score
	gotAbove, wantAbove := map[string]bool{}, map[string]bool{}
	for i := range want {
		if want[i].Score > kth+eps {
			wantAbove[want[i].PivotName] = true
		}
		if got[i].Score > kth+eps {
			gotAbove[got[i].PivotName] = true
		}
	}
	for e := range wantAbove {
		if !gotAbove[e] {
			t.Fatalf("%s: unambiguous answer %q missing (got %v)", name, e, gotAbove)
		}
	}
	if len(gotAbove) != len(wantAbove) {
		t.Fatalf("%s: %d unambiguous answers, want %d", name, len(gotAbove), len(wantAbove))
	}
}

// TestDistSubprocessEquivalence is the cross-process equivalence
// property: the same worlds and queries answered by (a) the single
// in-process engine, (b) the in-process sharded engine, and (c) a
// coordinator scattering over REAL subprocess shard servers, at 1, 2 and
// 4 shards, produce equivalent top-k answers.
func TestDistSubprocessEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess servers in -short")
	}
	w := newDistProcWorld(t, 5)
	sharded, err := core.NewShardedEngine(w.base, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 4} {
		var files []string
		if shards == 1 {
			// -save-shards requires >= 2 (a 1-piece partition is pointless
			// outside this degenerate-equivalence check); write it directly.
			dir := filepath.Join(w.dir, "shards-1")
			if err := writeShardFiles(w.ds.Graph, dir, 1, 0); err != nil {
				t.Fatal(err)
			}
			files = []string{filepath.Join(dir, shardFileName(0, 1))}
		} else {
			files = w.saveShardFiles(t, shards)
		}
		hosts := make([][]string, shards)
		for i := range files {
			hosts[i] = []string{startShardProc(t, files[i]).url}
		}
		de, err := core.NewDistEngine(w.base, hosts)
		if err != nil {
			t.Fatal(err)
		}

		for _, q := range w.workload() {
			want, err := w.base.Search(t.Context(), q.Graph, distProcOpts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := de.Search(t.Context(), q.Graph, distProcOpts)
			if err != nil {
				t.Fatalf("%s over %d subprocess shards: %v", q.Name, shards, err)
			}
			name := fmt.Sprintf("%s/shards=%d", q.Name, shards)
			assertAnswersEquivalent(t, name+"/dist-vs-single", got.Answers, want.Answers)

			sres, err := sharded.Search(t.Context(), q.Graph, distProcOpts)
			if err != nil {
				t.Fatal(err)
			}
			assertAnswersEquivalent(t, name+"/dist-vs-sharded", got.Answers, sres.Answers)
		}
	}
}

// TestDistSubprocessKilledReplica: kill a real replica process while a
// search workload is running — with a second replica per shard, every
// search must still return the exact top-k (failover + offset resume),
// never a silently truncated one.
func TestDistSubprocessKilledReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess servers in -short")
	}
	w := newDistProcWorld(t, 11)
	files := w.saveShardFiles(t, 2)
	procs := make([][]*shardProc, 2)
	hosts := make([][]string, 2)
	for i := range files {
		procs[i] = []*shardProc{startShardProc(t, files[i]), startShardProc(t, files[i])}
		hosts[i] = []string{procs[i][0].url, procs[i][1].url}
	}
	de, err := core.NewDistEngine(w.base, hosts)
	if err != nil {
		t.Fatal(err)
	}

	queries := w.workload()
	want := make([]*core.Result, len(queries))
	for i, q := range queries {
		if want[i], err = w.base.Search(t.Context(), q.Graph, distProcOpts); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		if round == 1 {
			// First replica of each shard dies mid-workload; the remaining
			// replicas must absorb every stream from here on.
			procs[0][0].kill()
			procs[1][0].kill()
		}
		for i, q := range queries {
			got, err := de.Search(t.Context(), q.Graph, distProcOpts)
			if err != nil {
				t.Fatalf("round %d, %s: %v", round, q.Name, err)
			}
			assertAnswersEquivalent(t, fmt.Sprintf("round %d/%s", round, q.Name), got.Answers, want[i].Answers)
		}
	}
	if st := de.Deployment().Dist; st.Failovers == 0 {
		t.Fatalf("no failovers counted after killing two replica processes: %+v", st)
	}
}

// TestDistCoordinatorSubprocess boots the whole deployment from the
// walkthrough — shard files, two subprocess shard servers, a subprocess
// coordinator — and checks the coordinator's public HTTP surface:
// correct answers, distributed healthz, read-only ingest, and a typed
// 502 once a shard loses its last replica.
func TestDistCoordinatorSubprocess(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess servers in -short")
	}
	w := newDistProcWorld(t, 7)
	files := w.saveShardFiles(t, 2)
	shard0 := startShardProc(t, files[0])
	shard1 := startShardProc(t, files[1])

	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd, logBuf := helperCmd(t,
		"-snapshot", w.snapPath, "-model", w.modelPath,
		"-shard-hosts", shard0.url+","+shard1.url,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		if t.Failed() && logBuf.Len() > 0 {
			t.Logf("coordinator log:\n%s", logBuf)
		}
	})
	coord := "http://" + waitAddrFile(t, addrFile)

	t.Run("healthz distributed", func(t *testing.T) {
		resp, err := http.Get(coord + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body["shards"] != float64(2) || body["distributed"] != true {
			t.Fatalf("healthz = %v, want 2 distributed shards", body)
		}
	})

	q := w.workload()[0]
	searchBody := func(k int) []byte {
		b, err := json.Marshal(api.SearchRequest{
			Query:   api.QueryFrom(q.Graph),
			Options: api.Options{K: k, Tau: distProcOpts.Tau, MaxHops: distProcOpts.MaxHops},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	t.Run("search answers", func(t *testing.T) {
		want, err := w.base.Search(t.Context(), q.Graph, distProcOpts)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(coord+"/v1/search", "application/json", bytes.NewReader(searchBody(distProcOpts.K)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("search status %d: %s", resp.StatusCode, b)
		}
		var res api.Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		got := make([]core.Answer, len(res.Answers))
		for i, a := range res.Answers {
			got[i] = core.Answer{PivotName: a.Entity, Score: a.Score}
		}
		assertAnswersEquivalent(t, q.Name+"/over-http", got, want.Answers)
	})

	t.Run("ingest read-only", func(t *testing.T) {
		resp, err := http.Post(coord+"/v1/ingest", "application/x-ndjson",
			strings.NewReader(`{"s":"A","p":"touches","o":"B"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("ingest on a coordinator: status %d, want 403", resp.StatusCode)
		}
	})

	t.Run("dead shard is 502", func(t *testing.T) {
		shard1.kill()
		// A fresh K dodges the coordinator's result cache: errors are never
		// cached, but the earlier success is.
		resp, err := http.Post(coord+"/v1/search", "application/json", bytes.NewReader(searchBody(3)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("search with a dead shard: status %d (%s), want 502", resp.StatusCode, b)
		}
		if !strings.Contains(string(b), "shard") {
			t.Fatalf("502 body names no shard: %s", b)
		}
	})
}
