package bench

import "testing"

// TestRunKeywordShape runs the keyword experiment end to end (short
// iteration counts) and checks the acceptance properties: an assembly
// row and three search workloads with positive latency measurements,
// candidate counts reported, and blended recall at least matching the
// single-candidate path (blending can only add answers). Skipped in
// -short mode (the environment trains an embedding).
func TestRunKeywordShape(t *testing.T) {
	art := run(t, "keyword")
	checkWritten(t, art)
	if len(art.Rows) != 4 {
		t.Fatalf("keyword rows = %d, want 4", len(art.Rows))
	}
	for _, r := range art.Rows {
		if r.Sample == nil || r.Sample.P50Us <= 0 || r.Sample.P95Us < r.Sample.P50Us || r.Sample.Errors != 0 || r.Values["queries"] <= 0 {
			t.Errorf("%s: degenerate measurements: %+v %v", r.Name, r.Sample, r.Values)
		}
	}
	if asm := row(t, art, "keyword", "assembly").Values; asm["candidates_mean"] < 1 {
		t.Errorf("candidate count off: %v", asm)
	}
	blended := row(t, art, "keyword", "keyword-blended").Values
	if blended["executed_mean"] < 1 {
		t.Errorf("executed count off: %v", blended)
	}
	single := row(t, art, "keyword", "keyword-single").Values
	if blended["recall"] < single["recall"] {
		t.Errorf("blended recall %.2f below single-candidate recall %.2f", blended["recall"], single["recall"])
	}
	if blended["recall"] <= 0 {
		t.Errorf("blended keyword search recovered nothing: %v", blended)
	}
	if _, ok := row(t, art, "keyword", "structured").Values["f1"]; !ok {
		t.Error("structured baseline has no quality values")
	}
}
