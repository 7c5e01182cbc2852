package analysis

import (
	"go/ast"
	"go/types"
)

// Atomiccheck enforces the two rules that make sync/atomic sound:
//
//   - Consistency: a variable or field passed by address to a
//     sync/atomic function anywhere in the package is atomic
//     everywhere — any plain (non-atomic) read or write of the same
//     object is flagged, because one racy plain access invalidates
//     every atomic one. (The typed wrappers — atomic.Uint64,
//     atomic.Pointer — make this impossible by construction; the check
//     matters for the legacy pass-by-pointer style.)
//   - No atomic.Value: a copy of a typed atomic tears it, and go vet's
//     copylocks check reports such copies through the type's noCopy
//     field. atomic.Value has none, so vet cannot see its copies, and
//     any use of it is flagged: atomic.Pointer[T] holds the same value
//     with the copy check.
//
// Suppress a deliberate exception with
// //tiresias:ignore atomiccheck (reason).
var Atomiccheck = &Analyzer{
	Name: "atomiccheck",
	Doc:  "fields touched via sync/atomic must be atomic everywhere; sync/atomic.Value, whose copies go vet cannot see, is not used",
	Run:  runAtomiccheck,
}

func runAtomiccheck(pass *Pass) error {
	atomicObjs, atomicUses := collectAtomicObjects(pass)
	for _, f := range pass.Files {
		checkMixedAccess(pass, f, atomicObjs, atomicUses)
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && isAtomicValue(pass.TypesInfo.Uses[id]) {
				pass.Reportf(id.Pos(), "sync/atomic.Value has no noCopy field, so go vet cannot see a copy of it: use atomic.Pointer[T] or another typed atomic")
			}
			return true
		})
	}
	return nil
}

// isAtomicValue reports whether obj is the type sync/atomic.Value.
func isAtomicValue(obj types.Object) bool {
	tn, ok := obj.(*types.TypeName)
	return ok && tn.Pkg() != nil && tn.Pkg().Path() == "sync/atomic" && tn.Name() == "Value"
}

// collectAtomicObjects finds every object (variable or struct field)
// passed by address to a sync/atomic function, returning the object
// set and the identifier uses that are part of those atomic calls
// (which are therefore not plain accesses).
func collectAtomicObjects(pass *Pass) (map[types.Object]string, map[*ast.Ident]bool) {
	objs := map[types.Object]string{}
	uses := map[*ast.Ident]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			// Only the package-level functions take &x; the typed
			// wrappers' methods have receivers, not pointer args.
			if fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op.String() != "&" {
					continue
				}
				obj, ids := addressedObject(pass, un.X)
				if obj == nil {
					continue
				}
				if _, seen := objs[obj]; !seen {
					objs[obj] = "atomic." + fn.Name()
				}
				for _, id := range ids {
					uses[id] = true
				}
			}
			return true
		})
	}
	return objs, uses
}

// addressedObject resolves &expr's target object and the identifiers
// that name it in the expression.
func addressedObject(pass *Pass, e ast.Expr) (types.Object, []*ast.Ident) {
	switch x := e.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		if obj == nil {
			obj = pass.TypesInfo.Defs[x]
		}
		return obj, []*ast.Ident{x}
	case *ast.SelectorExpr:
		if s, ok := pass.TypesInfo.Selections[x]; ok && s.Kind() == types.FieldVal {
			return s.Obj(), []*ast.Ident{x.Sel}
		}
	}
	return nil, nil
}

// checkMixedAccess flags plain reads and writes of objects that are
// accessed atomically elsewhere.
func checkMixedAccess(pass *Pass, f *ast.File, objs map[types.Object]string, atomicUses map[*ast.Ident]bool) {
	if len(objs) == 0 {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || atomicUses[id] {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		via, tracked := objs[obj]
		if !tracked {
			return true
		}
		pass.Reportf(id.Pos(), "plain access of %s, which is accessed atomically elsewhere (via %s): one non-atomic access races with every atomic one", id.Name, via)
		return true
	})
}
