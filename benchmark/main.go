// Command benchmark is the repository's benchmark harness: four named
// workloads, the end-to-end and per-layer metrics BENCHMARK.json declares,
// a correctness gate, and a comparison tool. See README.md.
//
// The contract form (what BENCHMARK.json's command runs through run.sh):
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints a human-readable table on standard error and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runSet is a run-set file: the environment the runs were taken in and
// the runs, appended one process at a time by -out.
type runSet struct {
	Env  envInfo      `json:"env"`
	Runs []*runResult `json:"runs"`
}

type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Host       string `json:"host_note,omitempty"`
	When       string `json:"when"`
}

func captureEnv() envInfo {
	return envInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host:       os.Getenv("BENCH_HOST_NOTE"),
		When:       time.Now().UTC().Format(time.RFC3339),
	}
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Int64("seed", 1, "input seed: request order, arrival times, ingest batches")
		seconds      = flag.Float64("seconds", 0, "measured window in seconds (0 = BENCHMARK.json run_seconds)")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		short        = flag.Bool("short", false, "micro worlds and windows (the selftest's mode; numbers are not comparable)")
		out          = flag.String("out", "", "append the run record (with spans when traced) to this run-set file")
		compare      = flag.Bool("compare", false, "compare two run-set files: -compare A.json B.json")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareSets(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
		if *short {
			*seconds = 1
		}
	}

	names := []string{*workloadName}
	if *workloadName == "all" {
		names = spec.workloadNames()
	}
	var ws []workload
	for _, n := range names {
		w, err := workloadByName(n, *short)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		ws = append(ws, w)
	}

	env, err := newRunEnv(root, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer env.cleanup.run()
	// A killed harness still stops its server and removes its files.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		env.cleanup.run()
		os.Exit(130)
	}()

	code := 0
	var last *runResult
	for _, w := range ws {
		res, err := env.run(w, *seed, *seconds, *trace != 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		printRun(os.Stderr, spec, res)
		if *out != "" {
			if err := appendRun(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		if !res.Correct {
			code = 1
		}
		last = res
	}
	// The contract's result line: the last line of standard output. With
	// -workload all it describes the last workload; the per-workload
	// tables are on standard error and in -out.
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]contractVal `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, contractMetrics(last.Metrics)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}

// contractVal is a metric in the result line: exactly value and unit.
type contractVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractMetrics(ms map[string]metricValue) map[string]contractVal {
	out := make(map[string]contractVal, len(ms))
	for name, m := range ms {
		out[name] = contractVal{m.Value, m.Unit}
	}
	return out
}

// newRunEnv prepares the scratch directory inside the checkout and
// registers its removal.
func newRunEnv(root string, spec *benchSpec) (*runEnv, error) {
	benchDir := filepath.Join(root, spec.Paths[0])
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "work-")
	if err != nil {
		return nil, err
	}
	binDir := filepath.Join(base, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	env := &runEnv{spec: spec, benchDir: benchDir, workDir: work, binDir: binDir, cleanup: &cleanups{}}
	env.cleanup.add(func() { os.RemoveAll(work) })
	return env, nil
}

// printRun renders one run for the reader: every metric by name with its
// unit and sample count, then the informational numbers and notes.
func printRun(w *os.File, spec *benchSpec, r *runResult) {
	mode := "end-to-end"
	decl := spec.EndToEnd
	if r.Trace {
		mode, decl = "per-layer (traced)", spec.PerLayer
	}
	fmt.Fprintf(w, "\n== %s · seed %d · %.0fs · %s · inputs %s ==\n", r.Workload, r.Seed, r.Seconds, mode, r.InputHash)
	for _, m := range decl {
		v := r.Metrics[m.Name]
		n := ""
		if v.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", v.Samples)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-8s%s\n", m.Name, v.Value, v.Unit, n)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  · %-32s %14.4f\n", k, r.Info[k])
	}
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	if !r.Valid {
		verdict += ", INVALID (load generator was the bottleneck)"
	}
	fmt.Fprintf(w, "  %s: %d attempted, %d failed\n", verdict, r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
}
