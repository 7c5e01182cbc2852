package analysis

// Package loading for the analyzer driver. The loader shells out to
// `go list -deps -export` for package metadata and compiled export
// data, parses the target packages' sources itself, and type-checks
// them with the standard library's gc-export-data importer. This keeps
// the whole analysis stack inside the standard library — no
// golang.org/x/tools dependency — at the cost of analyzing one
// package's syntax at a time (which is all the tiresias analyzers
// need: cross-package information flows through export data).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	// PkgPath is the import path.
	PkgPath string
	// Dir is the package's source directory.
	Dir string
	// Fset resolves the positions of Files.
	Fset *token.FileSet
	// Files is the parsed syntax of the package's non-test Go files.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// TypesInfo records type and object resolution.
	TypesInfo *types.Info
	// TypeErrors collects type-checking problems; analyzers still run
	// on a partially checked package, but the driver surfaces these.
	TypeErrors []error
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load resolves the given `go list` patterns (e.g. ./...) to their
// packages, parses each target package's sources with comments, and
// type-checks them against the compiled export data of their
// dependencies. Test files are not analyzed.
func Load(patterns []string) ([]*Package, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %w", patterns, err)
	}

	exports := map[string]string{}
	var targets []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly && !lp.Standard && len(lp.GoFiles) > 0 {
			p := lp
			targets = append(targets, &p)
		}
	}

	var pkgs []*Package
	for _, t := range targets {
		pkg, err := typecheck(t, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typecheck parses and type-checks one listed package against the
// export-data map.
func typecheck(lp *listedPackage, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	pkg := &Package{PkgPath: lp.ImportPath, Dir: lp.Dir, Fset: fset, Files: files}
	pkg.Types, pkg.TypesInfo, pkg.TypeErrors = checkTypes(fset, lp.ImportPath, files, exports)
	return pkg, nil
}

// checkTypes type-checks the given files as one package, resolving
// imports through the export-data file map (import path → compiled
// export file, as produced by `go list -export`). It returns the
// package, the resolved type info, and any type errors encountered
// (the returned package is still usable for best-effort analysis).
func checkTypes(fset *token.FileSet, path string, files []*ast.File, exports map[string]string) (*types.Package, *types.Info, []error) {
	lookup := func(importPath string) (io.ReadCloser, error) {
		f, ok := exports[importPath]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", importPath)
		}
		return os.Open(f)
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	return tpkg, info, typeErrs
}
