package oracle

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// importsOf parses just the import clauses of one Go file.
func importsOf(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, im := range f.Imports {
		p, err := strconv.Unquote(im.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestOracleImportsNothingItJudges: the package's non-test files may
// import, of this module, only the graph, the embedding space, the query
// model and the string helpers — in particular none of astar, semgraph,
// ta, tbq, core, serve, and not transform (whose Matcher is
// the engine's φ). An oracle that calls the code under test proves
// nothing.
func TestOracleImportsNothingItJudges(t *testing.T) {
	allowed := map[string]bool{
		"semkg/internal/kg":      true,
		"semkg/internal/embed":   true,
		"semkg/internal/query":   true,
		"semkg/internal/strutil": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no source files found (%v)", err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		for _, p := range importsOf(t, file) {
			if (p == "semkg" || strings.HasPrefix(p, "semkg/")) && !allowed[p] {
				t.Errorf("%s imports %s; the oracle may import only kg, embed, query and strutil", file, p)
			}
		}
	}
}

// TestOnlyTestsImportTheOracle: no non-test file anywhere in the
// repository (the nested benchmark module included) imports this package,
// so it can never become a production dependency — or a second engine.
func TestOnlyTestsImportTheOracle(t *testing.T) {
	root := filepath.Join("..", "..")
	seen := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != ".." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir // .git, .bench_build, ...
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		seen++
		for _, p := range importsOf(t, path) {
			if p == "semkg/internal/oracle" {
				t.Errorf("%s imports the oracle outside a test", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen < 100 {
		t.Fatalf("walked only %d non-test Go files — wrong root?", seen)
	}
}
