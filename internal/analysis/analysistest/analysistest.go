// Package analysistest runs a tiresias-vet analyzer over a testdata
// fixture package and checks its findings against // want comments,
// mirroring the conventions of golang.org/x/tools' analysistest
// without depending on it.
//
// A fixture is one directory of Go files under testdata/src/<name>
// forming a single package (importing the standard library or this
// module's packages). Lines that
// should trigger a finding carry a trailing comment of the form
//
//	code() // want `regexp`
//
// (double-quoted strings also work; several want clauses on one line
// demand several findings). Each diagnostic must match a want clause
// on its line, and each want clause must be matched by at least one
// diagnostic — unexpected and missing findings both fail the test.
// //tiresias:ignore directives are honored, so fixtures can also pin
// the suppression behavior.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tiresias/internal/analysis"
)

// wantRe matches one quoted expectation after "want".
var wantRe = regexp.MustCompile("^(`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

// exportCache memoizes `go list -export` lookups across fixtures.
var exportCache sync.Map // importPath → export file path

// Run loads testdata/src/<fixture> as one package, applies the
// analyzer (with //tiresias:ignore filtering), and matches the
// findings against the fixture's want comments.
func Run(t *testing.T, fixture string, a *analysis.Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	fset := token.NewFileSet()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", p, err)
		}
		files = append(files, f)
	}

	exports, err := fixtureExports(files)
	if err != nil {
		t.Fatalf("resolving fixture imports: %v", err)
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("resolving fixture dir: %v", err)
	}
	pkg := &analysis.Package{PkgPath: fixture, Dir: absDir, Fset: fset, Files: files}
	pkg.Types, pkg.TypesInfo, pkg.TypeErrors = analysis.CheckTypes(fset, fixture, files, exports)
	for _, e := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", fixture, e)
	}

	diags, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, fixture, err)
	}

	wants := collectWants(t, fset, files)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if w.file == d.Position.Filename && w.line == d.Position.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// want is one expectation: a regexp anchored to a file and line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants extracts the // want clauses of every fixture file.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "want ")
				if !strings.HasPrefix(text, "//") || idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(text[idx+len("want "):])
				for rest != "" {
					m := wantRe.FindString(rest)
					if m == "" {
						t.Errorf("%s:%d: malformed want clause %q", pos.Filename, pos.Line, rest)
						break
					}
					pattern := m[1 : len(m)-1]
					if m[0] == '"' {
						unq, err := strconv.Unquote(m)
						if err != nil {
							t.Errorf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, m, err)
							break
						}
						pattern = unq
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
						break
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
					rest = strings.TrimSpace(rest[len(m):])
				}
			}
		}
	}
	return wants
}

// fixtureExports resolves the imports of the fixture files to
// export-data files, caching across calls.
func fixtureExports(files []*ast.File) (map[string]string, error) {
	need := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, fmt.Errorf("bad import %s: %w", imp.Path.Value, err)
			}
			need[p] = true
		}
	}
	var missing []string
	for p := range need {
		if _, ok := exportCache.Load(p); !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		// ExportData resolves transitively (-deps), so the cache ends
		// up holding the full closure, not just the direct imports.
		resolved, err := analysis.ExportData(missing)
		if err != nil {
			return nil, err
		}
		for p, f := range resolved {
			exportCache.Store(p, f)
		}
	}
	out := map[string]string{}
	exportCache.Range(func(k, v any) bool {
		out[k.(string)] = v.(string)
		return true
	})
	return out, nil
}
