// Package analysis is the home of tiresias-vet: a small, dependency-
// free static-analysis framework (mirroring the shape of
// golang.org/x/tools/go/analysis, which this module deliberately does
// not depend on) plus the repo-specific analyzers that turn the
// codebase's load-bearing runtime invariants into compile-time facts:
//
//   - hotpath: functions annotated //tiresias:hotpath must not
//     allocate. The compiler's `go build -gcflags=-m=2` escape
//     diagnostics landing inside one (including code inlined into it)
//     are findings, and syntax rules cover the allocations inside
//     runtime calls that escape analysis never reports (fmt, string
//     concatenation and conversions, maps, channels, growing appends).
//   - locks: the locking contract, read from one simulation of the
//     locks held at each node (heldWalk). Struct fields documented
//     "guarded by <mu>" may only be touched while that mutex is held,
//     and the lock-acquisition-order graph, built inter-procedurally
//     across every loaded package, must be acyclic, re-entrant-free,
//     and consistent with the hierarchy declared by
//     //tiresias:lockorder directives in package docs.
//   - goroline: every go statement in the concurrent library packages
//     must have a visible shutdown path; timer-leaking
//     time.After/time.Tick in loops and unbuffered-channel sends under
//     a mutex (as heldWalk sees it) are flagged.
//   - atomiccheck: a field touched through sync/atomic anywhere must
//     be touched atomically everywhere, and sync/atomic.Value, whose
//     copies go vet's copylocks check cannot see, is not used.
//   - wireerr: the api package's sentinel↔code maps must stay
//     bidirectionally complete, so errors.Is works across the wire.
//   - ckptsec: every checkpoint section tag must be handled by both
//     the encoder and the decoder, and changing the tag set demands a
//     codec version bump.
//   - forbidimport: packages must not import or select from a
//     configured denylist (encoding/json, fmt.Sprintf, time.Now on
//     the hot path; tool-only packages in the serving layer).
//   - deadexport: every package-level exported func, type, const or
//     var of an internal/ package must have a non-test use somewhere
//     in the module. It needs every package of the module loaded
//     (./... from the module root) and reports nothing otherwise.
//
// Analyzers run over parsed, type-checked syntax — per package (Run),
// or once over every loaded package (RunModule, for inter-procedural
// checks like locks and module-wide ones like deadexport). A
// finding can be suppressed at its line (or the line above) with a
//
//	//tiresias:ignore [analyzer ...] (justification)
//
// comment; with no analyzer names the directive suppresses every
// analyzer on that line. The parenthesized justification is mandatory:
// a directive without one is itself reported and suppresses nothing.
// Suppressions are deliberate, reviewable exemptions — prefer fixing
// the finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check: a name (used in diagnostics and in
// //tiresias:ignore directives), a one-paragraph doc, and exactly one
// of the two run functions — Run for per-package checks, RunModule for
// checks that need every loaded package at once (inter-procedural
// analyses whose facts cross package boundaries).
type Analyzer struct {
	// Name identifies the analyzer in output and ignore directives.
	Name string
	// Doc describes what the analyzer enforces.
	Doc string
	// Run analyzes one package, reporting findings via pass.Reportf.
	Run func(pass *Pass) error
	// RunModule analyzes every loaded package together, reporting
	// findings via pass.Reportf with the owning package.
	RunModule func(pass *ModulePass) error
}

// Pass carries one package's parsed and type-checked syntax to an
// analyzer's Run function, and collects its diagnostics.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions of Files to file/line.
	Fset *token.FileSet
	// Files is the package's parsed syntax (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records type and object resolution for Files.
	TypesInfo *types.Info
	// Dir is the package's source directory on disk — the working
	// directory for analyzers that shell out to the go tool
	// (hotpath).
	Dir string

	diags []Diagnostic
}

// ModulePass carries every loaded package to a module-level analyzer's
// RunModule function, and collects its diagnostics.
type ModulePass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Pkgs is every loaded package, in load order.
	Pkgs []*Package

	diags []Diagnostic
}

// Reportf records one finding at pos, resolved against the owning
// package's FileSet.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Pos is the finding's position in the package's FileSet.
	Pos token.Pos
	// Position is Pos resolved to file/line/column.
	Position token.Position
	// Message describes the violated invariant.
	Message string
}

// String renders the diagnostic in the conventional
// file:line:col: [analyzer] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// ignoreDirective is the comment prefix that suppresses findings.
const ignoreDirective = "//tiresias:ignore"

// ignores maps "file:line" to the set of suppressed analyzer names
// ("*" suppresses all).
type ignores map[string]map[string]bool

// collectIgnores scans every comment of every file for
// //tiresias:ignore directives, accumulating them into ig. A directive
// suppresses matching diagnostics on its own line and on the line
// directly below it (so it can trail the flagged statement or sit on
// its own line above a statement — including a multi-line one, whose
// diagnostics anchor to its first line). A directive without a
// parenthesized justification is rejected: it suppresses nothing and
// is returned as a diagnostic of its own, so an exemption can never be
// silent about why it exists.
func collectIgnores(fset *token.FileSet, files []*ast.File, ig ignores) []Diagnostic {
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, ignoreDirective)
				if !ok {
					continue
				}
				// Reject lookalikes such as //tiresias:ignorexyz.
				if text != "" && text[0] != ' ' && text[0] != '\t' {
					continue
				}
				names := strings.Fields(text)
				// The analyzer names end where the mandatory
				// justification starts: a parenthesized free-text
				// reason.
				justified := false
				for i, n := range names {
					if strings.HasPrefix(n, "(") {
						// The justification runs to the closing paren
						// (or the end of the comment if unclosed);
						// "()" is an empty justification, which is no
						// justification.
						reason := strings.TrimPrefix(strings.Join(names[i:], " "), "(")
						if close := strings.Index(reason, ")"); close >= 0 {
							reason = reason[:close]
						}
						justified = strings.TrimSpace(reason) != ""
						names = names[:i]
						break
					}
				}
				pos := fset.Position(c.Pos())
				if !justified {
					bad = append(bad, Diagnostic{
						Analyzer: "ignore",
						Pos:      c.Pos(),
						Position: pos,
						Message:  "ignore directive missing its justification: write //tiresias:ignore [analyzer ...] (reason) — the directive is not honored",
					})
					continue
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := fmt.Sprintf("%s:%d", pos.Filename, line)
					set := ig[key]
					if set == nil {
						set = map[string]bool{}
						ig[key] = set
					}
					if len(names) == 0 {
						set["*"] = true
					}
					for _, n := range names {
						set[n] = true
					}
				}
			}
		}
	}
	return bad
}

// suppressed reports whether d is covered by an ignore directive.
func (ig ignores) suppressed(d Diagnostic) bool {
	set := ig[fmt.Sprintf("%s:%d", d.Position.Filename, d.Position.Line)]
	return set != nil && (set["*"] || set[d.Analyzer])
}

// RunAnalyzers applies the given analyzers to the loaded packages —
// per-package analyzers to each package, module analyzers once over
// the whole set — returning the surviving (non-suppressed) findings
// sorted by position. Unjustified ignore directives are reported as
// findings of the pseudo-analyzer "ignore". Analyzer run errors (not
// findings) are returned as an error.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	ig := ignores{}
	var out []Diagnostic
	for _, pkg := range pkgs {
		out = append(out, collectIgnores(pkg.Fset, pkg.Files, ig)...)
	}
	var raw []Diagnostic
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range pkgs {
				pass := &Pass{
					Analyzer:  a,
					Fset:      pkg.Fset,
					Files:     pkg.Files,
					Pkg:       pkg.Types,
					TypesInfo: pkg.TypesInfo,
					Dir:       pkg.Dir,
				}
				if err := a.Run(pass); err != nil {
					return out, fmt.Errorf("%s: %s: %w", pkg.PkgPath, a.Name, err)
				}
				raw = append(raw, pass.diags...)
			}
		}
		if a.RunModule != nil {
			pass := &ModulePass{Analyzer: a, Pkgs: pkgs}
			if err := a.RunModule(pass); err != nil {
				return out, fmt.Errorf("%s: %w", a.Name, err)
			}
			raw = append(raw, pass.diags...)
		}
	}
	for _, d := range raw {
		if !ig.suppressed(d) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
