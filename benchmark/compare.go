package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareSets applies the per-metric bounds of BENCHMARK.json to two
// run-set files, A the parent and B the change (or, for the A/A check,
// two sets of the same commit). One row per (workload, end-to-end
// metric):
//
//	worse       B's median is worse than A's by more than the bound
//	unresolved  A's own spread (quartile distance over median) is wider
//	            than the bound, so the pair cannot be told apart
//	unchanged   otherwise (an improvement also reads unchanged: a gain is
//	            claimed by the paired procedure in the README, not here)
//
// It returns 1 if any row is worse, else 0.
func compareSets(spec *benchSpec, pathA, pathB string, w io.Writer) int {
	a, err := readRunSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readRunSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(w, "%-18s %-22s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	worse := 0
	for _, wl := range spec.workloadNames() {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl, m.Name), b.values(wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			spread := relSpread(va)
			// change > 0 means B is worse, whatever the metric's direction.
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
				if m.Better == "higher" {
					change = -change
				}
			}
			verdict := "unchanged"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-18s %-22s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%%  %s (n=%d/%d)\n",
				wl, m.Name, ma, mb, 100*change, 100*spread, 100*m.Bound, verdict, len(va), len(vb))
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d (workload, metric) pairs are worse than their bound allows\n", worse)
		return 1
	}
	return 0
}

func readRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values lists one metric's values over the untraced runs of a workload.
func (s *runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// relSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) — the
// same number the acceptance check computes.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k)*float64(len(s)+1)/4 - 1
		lo := int(pos)
		if lo < 0 {
			return s[0]
		}
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}
