package bench

import "testing"

// TestRunHotpathShape checks the experiment artifact: the four cases
// measured, live rows only, with sane values. It runs the real benchmarks
// with testing.Benchmark, so it is skipped in -short mode.
func TestRunHotpathShape(t *testing.T) {
	art := run(t, "hotpath")
	checkWritten(t, art)
	if len(art.Rows) != 4 {
		t.Fatalf("hotpath rows = %d, want the 4 live cases", len(art.Rows))
	}
	for _, name := range []string{"AStarNext", "NodeMax", "MatchNode", "SearchEndToEnd"} {
		v := row(t, art, "hotpath", name+"/after").Values
		if v["ns_per_op"] <= 0 || v["allocs_per_op"] < 0 || v["bytes_per_op"] < 0 {
			t.Errorf("%s: implausible measurement %v", name, v)
		}
	}
}
