package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testWindow is the selftest's measured window in seconds: long enough for
// every phase to see requests, short enough that checking each response
// against the in-process reference stays cheap under the race detector.
const testWindow = 0.4

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// countMetrics are the per-layer counts that must repeat exactly between
// two traced runs of the same seed: they count work, not time.
var countMetrics = []string{
	"query.subqueries", "transform.candidates_per_node",
	"astar.popped", "astar.pushed", "astar.pruned", "astar.emitted", "astar.emitted_per_popped",
	"ta.accesses", "ta.rounds", "ta.k_per_access",
}

// TestSelftest runs every workload of BENCHMARK.json on micro worlds,
// untraced and traced, and holds the harness to the contract: every
// declared metric is reported once with its unit and a finite value,
// inputs are a function of the seed alone, the gate passes, and the
// A*/TA counts repeat exactly.
func TestSelftest(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, metricName)
		}
		if seen[m.Name] {
			t.Errorf("metric %q is declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %q: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	env, err := newRunEnv(root, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer env.cleanup.run()

	for _, name := range spec.workloadNames() {
		t.Run(name, func(t *testing.T) {
			w, err := workloadByName(name, true)
			if err != nil {
				t.Fatal(err)
			}

			// Inputs are a function of (workload, seed, seconds) alone.
			wd, err := buildWorld(w)
			if err != nil {
				t.Fatal(err)
			}
			h1, h1again, h2 := wd.generate(w, 1, testWindow).hash, wd.generate(w, 1, testWindow).hash, wd.generate(w, 2, testWindow).hash
			if h1 != h1again {
				t.Errorf("same seed, different input hash: %s vs %s", h1, h1again)
			}
			if h1 == h2 {
				t.Errorf("seeds 1 and 2 produce the same input hash %s", h1)
			}

			run := func(trace bool, decl []metricSpec) *runResult {
				t.Helper()
				r, err := env.run(w, 1, testWindow, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d notes=%v", trace, r.Correct, r.Attempted, r.Failed, r.Notes)
				}
				if r.InputHash != h1 {
					t.Errorf("trace=%v: run input hash %s, generator says %s", trace, r.InputHash, h1)
				}
				if len(r.Metrics) != len(decl) {
					t.Errorf("trace=%v: %d metrics reported, %d declared", trace, len(r.Metrics), len(decl))
				}
				for _, m := range decl {
					v, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %q not reported", trace, m.Name)
					case v.Unit != m.Unit:
						t.Errorf("metric %q: unit %q, declared %q", m.Name, v.Unit, m.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %q: value %v is not finite", m.Name, v.Value)
					case !trace && v.Value <= 0:
						t.Errorf("end-to-end metric %q is %v: the contract wants metrics that are never 0", m.Name, v.Value)
					}
				}
				return r
			}
			e2e := run(false, spec.EndToEnd)
			line, err := json.Marshal(contractMetrics(e2e.Metrics))
			if err != nil || !bytes.Contains(line, []byte(`"setup_s":{"value":`)) {
				t.Errorf("result line metrics: %s (%v)", line, err)
			}

			a, b := run(true, spec.PerLayer), run(true, spec.PerLayer)
			for _, m := range countMetrics {
				if a.Metrics[m].Value != b.Metrics[m].Value {
					t.Errorf("count %q does not repeat: %v then %v", m, a.Metrics[m].Value, b.Metrics[m].Value)
				}
			}
			if len(a.Spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			for i, s := range a.Spans {
				if s.End < s.Start || s.Parent >= i || (s.Parent >= 0 && a.Spans[s.Parent].Req != s.Req) {
					t.Fatalf("span %d is malformed: %+v", i, s)
				}
			}
		})
	}
}

func TestRelSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := relSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) = [1.25, 3.0, 7.0].
	if got, want := relSpread([]float64{1, 2, 4, 8}), (7.0-1.25)/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{
			{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "noisy_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		},
	}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	set := func(lat, qps, noisy []float64) string {
		var s runSet
		for i := range lat {
			s.Runs = append(s.Runs, &runResult{Workload: "w", Metrics: map[string]metricValue{
				"latency_p50_ms": {Value: lat[i]}, "throughput_qps": {Value: qps[i]}, "noisy_ms": {Value: noisy[i]},
			}})
		}
		data, _ := json.Marshal(s)
		path := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := set([]float64{10, 10.1, 9.9, 10}, []float64{100, 101, 99, 100}, []float64{1, 5, 9, 13})
	slow := set([]float64{12, 12.1, 11.9, 12}, []float64{80, 81, 79, 80}, []float64{1, 5, 9, 13})
	var out bytes.Buffer
	if code := compareSets(spec, a, a, &out); code != 0 {
		t.Errorf("A/A compare exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(spec, a, slow, &out); code != 1 {
		t.Errorf("a 20%% regression exits %d:\n%s", code, out.String())
	}
	rows := out.String()
	for _, want := range []string{"latency_p50_ms", "worse", "unresolved"} {
		if !strings.Contains(rows, want) {
			t.Errorf("compare output lacks %q:\n%s", want, rows)
		}
	}
	if strings.Count(rows, "worse (") != 2 {
		t.Errorf("want exactly two worse rows (latency and throughput):\n%s", rows)
	}
}
