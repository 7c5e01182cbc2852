package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

// ForbidRule bans imports and qualified calls from a set of packages.
type ForbidRule struct {
	// Packages lists the package import paths the rule applies to
	// (matched exactly or as a path suffix, so "internal/algo"
	// matches "tiresias/internal/algo").
	Packages []string
	// Imports lists banned import paths.
	Imports []string
	// Calls lists banned qualified selectors, e.g. "fmt.Sprintf" or
	// "time.Now": package name dot exported identifier (type names
	// included).
	Calls []string
}

// DefaultForbidRules bans the known allocation/nondeterminism traps
// from the hot-path packages: encoding/json (reflection-driven
// marshalling has no place under the per-record path), fmt.Sprintf
// (allocates and boxes), and time.Now (hot-path code must be a pure
// function of its inputs so replays and checkpoint restores are
// bit-exact; wall-clock reads belong to the windowing layer's inputs).
//
// The second rule pins the serving import graph: the experiment,
// reference, generator and scoring packages that only tools and
// examples may link stay out of the wire layer.
var DefaultForbidRules = []ForbidRule{
	{
		Packages: []string{"internal/algo", "internal/shhh", "internal/hierarchy", "internal/stream"},
		Imports:  []string{"encoding/json"},
		Calls:    []string{"fmt.Sprintf", "time.Now"},
	},
	{
		Packages: []string{"httpserve", "api", "client", "cmd/tiresias-serve"},
		Imports: []string{
			"tiresias/internal/hhd", "tiresias/internal/multidim", "tiresias/internal/refmethod",
			"tiresias/internal/experiments", "tiresias/internal/scenario", "tiresias/internal/gen",
			"tiresias/internal/evalx",
		},
	},
}

// NewForbidImport builds a forbidimport analyzer over the given rules
// (nil selects DefaultForbidRules). The analyzer flags banned imports
// at the import declaration and banned calls at each call site; both
// can be exempted case-by-case with //tiresias:ignore forbidimport.
func NewForbidImport(rules []ForbidRule) *Analyzer {
	if rules == nil {
		rules = DefaultForbidRules
	}
	return &Analyzer{
		Name: "forbidimport",
		Doc:  "ban configured imports and selectors per package (json/Sprintf/Now on the hot path; tool-only packages in the serving layer)",
		Run: func(pass *Pass) error {
			return runForbidImport(pass, rules)
		},
	}
}

// matchPackage reports whether pkgPath falls under pattern (exact
// match or path-suffix match on a component boundary).
func matchPackage(pkgPath, pattern string) bool {
	return pkgPath == pattern || strings.HasSuffix(pkgPath, "/"+pattern)
}

func runForbidImport(pass *Pass, rules []ForbidRule) error {
	if pass.Pkg == nil {
		return nil
	}
	pkgPath := pass.Pkg.Path()
	bannedImports := map[string]bool{}
	bannedCalls := map[string]bool{}
	for _, r := range rules {
		applies := false
		for _, p := range r.Packages {
			if matchPackage(pkgPath, p) {
				applies = true
				break
			}
		}
		if !applies {
			continue
		}
		for _, imp := range r.Imports {
			bannedImports[imp] = true
		}
		for _, call := range r.Calls {
			bannedCalls[call] = true
		}
	}
	if len(bannedImports) == 0 && len(bannedCalls) == 0 {
		return nil
	}

	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if bannedImports[path] {
				pass.Reportf(imp.Pos(), "import %q is banned in package %s", path, pkgPath)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[sel.Sel]
			if !ok || obj.Pkg() == nil {
				return true
			}
			qualified := obj.Pkg().Name() + "." + sel.Sel.Name
			if bannedCalls[qualified] {
				pass.Reportf(sel.Pos(), "%s is banned in package %s", qualified, pkgPath)
			}
			return true
		})
	}
	return nil
}

// Analyzers returns the full tiresias-vet suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Hotpath,
		Locks,
		NewGoroline(nil),
		Atomiccheck,
		Wireerr,
		Ckptsec,
		NewForbidImport(nil),
		Deadexport,
	}
}
