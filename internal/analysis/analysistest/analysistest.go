// Package analysistest runs a tiresias-vet analyzer over a testdata
// fixture package and checks its findings against // want comments,
// mirroring the conventions of golang.org/x/tools' analysistest
// without depending on it.
//
// A fixture is one directory of Go files under testdata/src/<name>
// forming a single package (importing the standard library or this
// module's packages), or a small module with its own go.mod. Lines that
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
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tiresias/internal/analysis"
)

// wantRe matches one quoted expectation after "want".
var wantRe = regexp.MustCompile("^(`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

// Run loads testdata/src/<fixture> with analysis.Load, as
// tiresias-vet loads packages, applies the analyzer (with
// //tiresias:ignore filtering), and matches the findings against the
// fixture's want comments. A fixture with its own go.mod is a small
// module, loaded whole (./... from its root): that is how module
// analyzers see uses across packages.
//
//tiresias:ignore deadexport (test harness: only _test.go files call it)
func Run(t *testing.T, fixture string, a *analysis.Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	pattern := "./" + filepath.ToSlash(dir)
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
		t.Chdir(dir)
		pattern = "./..."
	}
	pkgs, err := analysis.Load([]string{pattern})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	var wants []want
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			t.Errorf("fixture %s: type error: %v", fixture, e)
		}
		wants = append(wants, collectWants(t, pkg.Fset, pkg.Files)...)
	}

	diags, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, fixture, err)
	}

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
