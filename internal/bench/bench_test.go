package bench

import (
	"context"
	"strings"
	"testing"

	"semkg/internal/datagen"
	"semkg/internal/embed"
)

// testParams sizes the small, cached environments these tests share
// (kgbench's -short, at a fifth of the scale). The experiment tests
// regenerate full evaluation artifacts and train an embedding; they are
// skipped in -short mode to keep CI fast.
func testParams(t *testing.T) Params {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment environments train embeddings; skipped in -short mode")
	}
	return Params{Scale: 0.2, Embed: embed.Config{Dim: 32, Epochs: 80, Seed: 3}, Short: true}
}

func testEnv(t *testing.T) *Env {
	t.Helper()
	env, err := testParams(t).env(datagen.DBpediaLike)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// run runs one registry experiment at test scale.
func run(t *testing.T, name string) *Artifact {
	t.Helper()
	p := testParams(t)
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no experiment %q in the registry", name)
	}
	art, err := e.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if art.Experiment != name {
		t.Fatalf("experiment %q labels its artifact %q", name, art.Experiment)
	}
	if tables := art.Render(); len(tables) == 0 || tables[0].String() == "" {
		t.Fatal("empty render")
	}
	return art
}

func TestCachedReuse(t *testing.T) {
	a := testEnv(t)
	b := testEnv(t)
	if a != b {
		t.Error("Cached should return the same environment")
	}
	if a.TrainTime <= 0 || a.ModelBytes <= 0 {
		t.Errorf("offline stats missing: %+v", a.TrainTime)
	}
}

func TestRunTable1Shape(t *testing.T) {
	art := run(t, "table1")
	if len(art.Rows) != 8 {
		t.Fatalf("Table I has %d rows, want 8 methods", len(art.Rows))
	}
	byName := map[string]map[string]float64{}
	for _, r := range art.Rows {
		byName[r.Name] = r.Values
	}
	found := func(method string, variant string) bool {
		_, ok := byName[method][variant+"_r"]
		return ok
	}
	sgq := byName["SGQ"]
	for _, g := range []string{"g1", "g2", "g3", "g4"} {
		if !found("SGQ", g) {
			t.Errorf("SGQ failed variant %s", g)
		}
	}
	// Headline claim: SGQ's recall on the canonical variant beats the
	// exact-match methods, which only recover the direct schema.
	if sgq["g4_r"] <= byName["QGA"]["g4_r"] {
		t.Errorf("SGQ recall %.2f should beat QGA %.2f", sgq["g4_r"], byName["QGA"]["g4_r"])
	}
	if sgq["g4_r"] <= byName["gStore"]["g4_r"] {
		t.Errorf("SGQ recall %.2f should beat gStore %.2f", sgq["g4_r"], byName["gStore"]["g4_r"])
	}
	// gStore cannot handle the synonym-type and abbreviated-name variants.
	if found("gStore", "g1") || found("gStore", "g2") {
		t.Error("gStore should fail G1 and G2")
	}
	// SLQ and QGA handle the node mismatches through the library.
	if !found("SLQ", "g1") || !found("QGA", "g2") {
		t.Error("SLQ/QGA should handle node-mismatch variants")
	}
	out := art.Render()[0].String()
	if !strings.Contains(out, "SGQ") || !strings.Contains(out, "-") {
		t.Errorf("render missing expected cells:\n%s", out)
	}
}

func TestRunFigureShape(t *testing.T) {
	art := run(t, "fig12")
	if len(art.Rows) != 6*4 {
		t.Fatalf("figure has %d rows, want 6 systems x 4 k values", len(art.Rows))
	}
	byName := map[string]map[string]float64{}
	for _, r := range art.Rows {
		byName[r.Name] = r.Values
		for _, key := range []string{"p", "r", "f1"} {
			if v := r.Values[key]; v < 0 || v > 1 {
				t.Fatalf("%s %s out of range: %v", r.Name, key, v)
			}
		}
	}
	if byName["SGQ k=80"]["f1"] <= byName["p-hom k=80"]["f1"] {
		t.Errorf("SGQ F1 %.2f should beat p-hom %.2f at k=80",
			byName["SGQ k=80"]["f1"], byName["p-hom k=80"]["f1"])
	}
	// Recall grows with k for SGQ.
	if byName["SGQ k=80"]["r"] < byName["SGQ k=10"]["r"]-1e-9 {
		t.Errorf("SGQ recall decreased with k: %v -> %v", byName["SGQ k=10"]["r"], byName["SGQ k=80"]["r"])
	}
}

// TestRunFig15Shape: every bound fraction has a served row (the cut
// pipeline) and an alg3 row (Algorithms 2-3 with a measured t); each sweep
// has increasing bounds, F1 that more time does not substantially hurt
// (tie noise from scheduling is tolerated), and ordered response times.
func TestRunFig15Shape(t *testing.T) {
	art := run(t, "fig15")
	if len(art.Rows) != 16 {
		t.Fatalf("bound sweep has %d rows, want 8 fractions x {served, alg3}", len(art.Rows))
	}
	for _, sweep := range [][]Row{
		{art.Rows[0], art.Rows[14]}, // served 20%, 90%
		{art.Rows[1], art.Rows[15]}, // alg3 20%, 90%
	} {
		first, last := sweep[0].Values, sweep[1].Values
		if strings.HasPrefix(sweep[0].Name, "alg3") != strings.HasPrefix(sweep[1].Name, "alg3") {
			t.Fatalf("rows %q and %q are from different sweeps", sweep[0].Name, sweep[1].Name)
		}
		if last["bound_ms"] <= first["bound_ms"] {
			t.Errorf("%s: bounds not increasing: %v -> %v", sweep[0].Name, first["bound_ms"], last["bound_ms"])
		}
		if last["f1"] < first["f1"]-0.1 {
			t.Errorf("%s: F1 degraded with larger bound: %v -> %v", sweep[0].Name, first["f1"], last["f1"])
		}
		if first["time_min_ms"] > first["time_ms"] || first["time_ms"] > first["time_max_ms"] {
			t.Errorf("%s: response-time min/mean/max out of order: %v", sweep[0].Name, first)
		}
	}
	for i, r := range art.Rows {
		if alg3 := strings.HasPrefix(r.Name, "alg3 "); alg3 != (i%2 == 1) || alg3 && r.Values["t_ns"] <= 0 {
			t.Errorf("row %d %q: want served and alg3 rows alternating, alg3 with a measured t_ns (%v)", i, r.Name, r.Values["t_ns"])
		}
	}
}

func TestRunTable5Shape(t *testing.T) {
	art := run(t, "table5")
	pivots := map[string]bool{}
	for _, r := range art.Rows {
		pivots[strings.Fields(r.Name)[1]] = true
	}
	if len(pivots) < 2 || len(art.Rows) != 4*len(pivots) {
		t.Fatalf("pivot comparison needs >= 2 pivots x 4 k values, got %d rows over %v", len(art.Rows), pivots)
	}
}

func TestRunTable6Shape(t *testing.T) {
	art := run(t, "table6")
	if len(art.Rows) < 2 {
		t.Fatalf("Table VI rows = %d", len(art.Rows))
	}
	if _, random := art.Rows[0].Values["random_pr"]; !strings.HasPrefix(art.Rows[0].Name, "Simple") || random {
		t.Errorf("first row should be Simple without Random: %+v", art.Rows[0])
	}
	for _, r := range art.Rows[1:] {
		if _, random := r.Values["random_pr"]; !random {
			t.Errorf("%s should measure Random", r.Name)
		}
	}
}

func TestRunTable7Shape(t *testing.T) {
	art := run(t, "table7")
	if len(art.Rows) == 0 {
		t.Fatal("user study produced no queries")
	}
	strong, judged := 0, 0
	for _, r := range art.Rows {
		p := r.Values["pcc"]
		if p < -1 || p > 1 {
			t.Fatalf("PCC out of range: %v", p)
		}
		// The correlation bar is held on the dbpedia-like world the other
		// tests run on; the two smaller worlds only have to be in range.
		if strings.HasPrefix(r.Name, "dbpedia-like") {
			judged++
			if p >= 0.5 {
				strong++
			}
		}
	}
	// The paper reports strong correlation on 16/20 queries; at our scale
	// at least half should be strong.
	if judged == 0 || strong*2 < judged {
		t.Errorf("only %d/%d strong correlations", strong, judged)
	}
}

func TestRunNoiseShape(t *testing.T) {
	art := run(t, "noise")
	if len(art.Rows) != 10 {
		t.Fatalf("noise sweep has %d rows, want 2 modes x 5 ratios", len(art.Rows))
	}
	// Effectiveness at 40% noise must not exceed the clean run (node or
	// edge): noise can only hurt or tie.
	for _, mode := range []string{"node", "edge"} {
		clean := row(t, art, art.Rows[0].Section, mode+" noise 0%").Values["f1"]
		noisy := row(t, art, art.Rows[0].Section, mode+" noise 40%").Values["f1"]
		if noisy > clean+0.05 {
			t.Errorf("%s noise improved F1: %v -> %v", mode, clean, noisy)
		}
	}
}

func TestRunTable9Shape(t *testing.T) {
	art := run(t, "table9")
	if len(art.Rows) != 3 {
		t.Fatalf("rows = %d", len(art.Rows))
	}
	for i, r := range art.Rows {
		if i > 0 && r.Values["nodes"] <= art.Rows[i-1].Values["nodes"] {
			t.Errorf("scales not increasing: %v vs %v", art.Rows[i-1].Values["nodes"], r.Values["nodes"])
		}
		if r.Values["sgq_k10_ms"] <= 0 || r.Values["embed_ms"] <= 0 || r.Values["embed_mb"] <= 0 {
			t.Errorf("%s: missing online/offline costs: %v", r.Name, r.Values)
		}
	}
}

func TestRunTable10Shape(t *testing.T) {
	art := run(t, "table10")
	if len(art.Rows) != 8 {
		t.Fatalf("sweep has %d rows, want 4 n̂ + 4 τ", len(art.Rows))
	}
	nhat, tau := art.Rows[:4], art.Rows[4:]
	// Larger n̂ cannot reduce recall (more schemas reachable).
	if nhat[3].Values["r"] < nhat[0].Values["r"]-1e-9 {
		t.Errorf("recall decreased with n̂: %v -> %v", nhat[0].Values["r"], nhat[3].Values["r"])
	}
	// The largest τ prunes correct schemas: recall at τ=0.8 should not
	// exceed recall at τ=0.5.
	if tau[3].Values["r"] > tau[0].Values["r"]+1e-9 {
		t.Errorf("recall grew with τ: %v -> %v", tau[0].Values["r"], tau[3].Values["r"])
	}
}

func TestRunAblationShape(t *testing.T) {
	art := run(t, "ablation")
	if len(art.Rows) != 3 {
		t.Fatalf("ablation rows = %d", len(art.Rows))
	}
	def, unin, pruned := art.Rows[0].Values["states_popped"], art.Rows[1].Values["states_popped"], art.Rows[2].Values["states_popped"]
	if unin < def {
		t.Errorf("uninformed search popped fewer states (%v) than informed (%v)", unin, def)
	}
	if pruned > def {
		t.Errorf("visited-set pruning popped more states (%v) than exact (%v)", pruned, def)
	}
}

// TestRegistry pins the -exp vocabulary: the twelve paper reproductions
// `-exp all` prints, in order, then the eight artifact experiments.
func TestRegistry(t *testing.T) {
	want := "table1 fig12 fig13 fig14 fig15 table5 table6 table7 noise table9 table10 ablation |" +
		" hotpath serve ingest shard replica keyword batch load"
	var got []string
	for i, e := range Experiments {
		if i > 0 && e.Paper != Experiments[i-1].Paper {
			got = append(got, "|")
		}
		got = append(got, e.Name)
		if found, ok := Lookup(e.Name); !ok || found.Name != e.Name {
			t.Errorf("Lookup(%q) = %v, %v", e.Name, found.Name, ok)
		}
	}
	if strings.Join(got, " ") != want {
		t.Errorf("registry = %s\nwant       %s", strings.Join(got, " "), want)
	}
}
