package analysis

import (
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Deadexport keeps deleted code deleted: it reports every package-level
// exported func, type, const or var declared in an internal/ package
// that no loaded non-test file uses, its own package included. Such a
// name is reachable only from tests, so it is either dead or a test
// helper in the wrong file. Methods are out of scope: interface
// satisfaction hides their callers.
//
// Only a load of the whole module can prove a name unused, so the
// analyzer reports nothing unless every non-test package `go list
// ./...` finds at the module root is loaded: run it as
// `tiresias-vet ./...` from the root.
var Deadexport = &Analyzer{
	Name:      "deadexport",
	Doc:       "report exported package-level names in internal/ packages that no non-test code uses (needs ./... from the module root)",
	RunModule: runDeadexport,
}

func runDeadexport(pass *ModulePass) error {
	if len(pass.Pkgs) == 0 {
		return nil
	}
	whole, err := loadsWholeModule(pass.Pkgs)
	if err != nil || !whole {
		return err
	}
	used := map[string]bool{} // "pkgpath.Name"
	for _, pkg := range pass.Pkgs {
		for _, obj := range pkg.TypesInfo.Uses {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				used[obj.Pkg().Path()+"."+obj.Name()] = true
			}
		}
	}
	for _, pkg := range pass.Pkgs {
		if !isInternal(pkg.PkgPath) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				for _, name := range declaredNames(decl) {
					if name.IsExported() && !used[pkg.PkgPath+"."+name.Name] {
						pass.Reportf(pkg, name.Pos(), "%s.%s is exported but no non-test code uses it: delete it, or move it into the tests that use it", pkg.Types.Name(), name.Name)
					}
				}
			}
		}
	}
	return nil
}

// declaredNames returns the names a top-level declaration binds in its
// package scope: functions (not methods), types, consts and vars.
func declaredNames(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		var names []*ast.Ident
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				names = append(names, s.Name)
			case *ast.ValueSpec:
				names = append(names, s.Names...)
			}
		}
		return names
	}
	return nil
}

// isInternal reports whether pkgPath has an internal path element.
func isInternal(pkgPath string) bool {
	return strings.Contains("/"+pkgPath+"/", "/internal/")
}

// loadsWholeModule reports whether pkgs holds every package of the
// module containing the first of them.
func loadsWholeModule(pkgs []*Package) (bool, error) {
	root := pkgs[0].Dir
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return false, nil
		}
		root = parent
	}
	// A directory of tests only is no package Load analyzes.
	cmd := exec.Command("go", "list", "-f", "{{if .GoFiles}}{{.ImportPath}}{{end}}", "./...")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return false, fmt.Errorf("go list ./... in %s: %w", root, err)
	}
	loaded := map[string]bool{}
	for _, pkg := range pkgs {
		loaded[pkg.PkgPath] = true
	}
	for _, path := range strings.Fields(string(out)) {
		if !loaded[path] {
			return false, nil
		}
	}
	return true, nil
}
