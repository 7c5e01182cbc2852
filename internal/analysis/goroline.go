package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DefaultGorolinePackages is the set of library packages whose
// goroutines must have visible lifecycles: the packages an embedder
// links into a long-lived process. Commands and examples own their
// process exit and are exempt.
var DefaultGorolinePackages = []string{
	"tiresias",
	"tiresias/httpserve",
	"tiresias/client",
	"tiresias/internal/store",
	"tiresias/internal/metrics",
}

// NewGoroline builds the goroutine-lifecycle analyzer over the given
// package list (nil selects DefaultGorolinePackages). In those
// packages it enforces three lifecycle rules:
//
//   - Every go statement must have a visible shutdown path: the
//     spawned body (or the same-package function it calls, one level
//     deep) selects or receives on a channel (ctx.Done(), a close
//     signal, a work queue whose close ends a range loop) or
//     participates in a sync.WaitGroup (Done in the body, or Add
//     visibly preceding the spawn). A goroutine with none of these
//     outlives every reference to it — the leak multiplies with the
//     fleet refactor's goroutine count.
//   - time.After and time.Tick must not be called inside a loop: each
//     call allocates a timer that is not collected until it fires
//     (or ever, for Tick), so a loop turns them into a slow leak; use
//     time.NewTimer/NewTicker with a deferred Stop.
//   - A send on a locally-visible unbuffered channel must not happen
//     while a mutex is held, as the locks analyzer's heldWalk sees it:
//     the send blocks until a receiver is ready, and a blocked lock
//     holder is a convoy (or a deadlock, if the receiver needs the
//     same lock).
//
// A deliberate exception is annotated in place:
// //tiresias:ignore goroline (reason).
func NewGoroline(pkgs []string) *Analyzer {
	if pkgs == nil {
		pkgs = DefaultGorolinePackages
	}
	return &Analyzer{
		Name: "goroline",
		Doc:  "check goroutine lifecycles in library packages: shutdown paths, loop timer leaks, unbuffered sends under locks",
		Run: func(pass *Pass) error {
			return runGoroline(pass, pkgs)
		},
	}
}

func runGoroline(pass *Pass, pkgs []string) error {
	if pass.Pkg == nil {
		return nil
	}
	applies := false
	for _, p := range pkgs {
		if matchPackage(pass.Pkg.Path(), p) {
			applies = true
			break
		}
	}
	if !applies {
		return nil
	}
	unbuffered := collectUnbufferedChans(pass)
	pkg := pass2pkg(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoroFunc(pass, fd)
			heldWalk(pkg, fd.Body, func(n ast.Node, held []heldLock, _ heldLock) {
				if x, ok := n.(*ast.SendStmt); ok && len(held) > 0 {
					if obj := chanObj(pass, x.Chan); obj != nil && unbuffered[obj] {
						pass.Reportf(x.Pos(), "send on unbuffered channel %s while holding %s (the send blocks the lock holder until a receiver is ready)", chanName(x.Chan), held[0])
					}
				}
			})
		}
	}
	return nil
}

// checkGoroFunc applies the shutdown-path and loop-timer rules to one
// function.
func checkGoroFunc(pass *Pass, fd *ast.FuncDecl) {
	loopDepth := 0
	var walk func(n ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ForStmt:
				loopDepth++
				if x.Init != nil {
					walk(x.Init)
				}
				if x.Cond != nil {
					walk(x.Cond)
				}
				if x.Post != nil {
					walk(x.Post)
				}
				walk(x.Body)
				loopDepth--
				return false
			case *ast.RangeStmt:
				loopDepth++
				walk(x.Body)
				loopDepth--
				return false
			case *ast.GoStmt:
				checkGoStmt(pass, fd, x)
			case *ast.CallExpr:
				if loopDepth > 0 {
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
						if obj, ok := pass.TypesInfo.Uses[sel.Sel]; ok && obj.Pkg() != nil && obj.Pkg().Path() == "time" {
							switch sel.Sel.Name {
							case "After", "Tick":
								pass.Reportf(x.Pos(), "time.%s inside a loop leaks a timer per iteration; hoist a time.NewTimer/NewTicker with a deferred Stop", sel.Sel.Name)
							}
						}
					}
				}
			}
			return true
		})
	}
	walk(fd.Body)
}

// checkGoStmt verifies one go statement has a visible shutdown path.
func checkGoStmt(pass *Pass, fd *ast.FuncDecl, g *ast.GoStmt) {
	// Resolve the spawned body: an inline closure, or a same-package
	// function/method declaration.
	var body *ast.BlockStmt
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		if callee := staticCallee(pass2pkg(pass), g.Call); callee != nil {
			body = funcDeclBody(pass, callee)
		}
	}
	if body != nil && hasShutdownPath(pass, body) {
		return
	}
	// No in-body evidence: accept a visible WaitGroup registration —
	// wg.Add(...) textually before the spawn in the spawning function.
	if wgAddBefore(pass, fd, g.Pos()) {
		return
	}
	pass.Reportf(g.Pos(), "goroutine has no visible shutdown path: select on ctx.Done()/a close channel, register with a sync.WaitGroup, or annotate //tiresias:ignore goroline (reason)")
}

// hasShutdownPath reports whether the body (nested closures included)
// contains lifecycle evidence: a channel receive (select arms and
// <-ctx.Done() both land here), a range over a channel, or a
// sync.WaitGroup Done.
func hasShutdownPath(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// wgAddBefore reports whether a sync.WaitGroup Add call precedes pos
// in the function body.
func wgAddBefore(pass *Pass, fd *ast.FuncDecl, pos token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
			if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
				found = true
			}
		}
		return !found
	})
	return found
}

// funcDeclBody finds the body of a function object declared in this
// package.
func funcDeclBody(pass *Pass, fn *types.Func) *ast.BlockStmt {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.TypesInfo.Defs[fd.Name] == fn {
				return fd.Body
			}
		}
	}
	return nil
}

// collectUnbufferedChans gathers channel objects visibly created
// unbuffered — make(chan T) with no capacity — anywhere in the
// package, at any assignment or declaration.
func collectUnbufferedChans(pass *Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return
		}
		fun, ok := call.Fun.(*ast.Ident)
		if !ok || fun.Name != "make" || !isBuiltin(pass, fun) {
			return
		}
		if tv, ok := pass.TypesInfo.Types[call]; !ok || tv.Type == nil {
			return
		} else if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
			return
		}
		if obj := chanObj(pass, lhs); obj != nil {
			out[obj] = true
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i := range x.Lhs {
					if i < len(x.Rhs) {
						record(x.Lhs[i], x.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i := range x.Names {
					if i < len(x.Values) {
						record(x.Names[i], x.Values[i])
					}
				}
			}
			return true
		})
	}
	return out
}

// chanObj resolves the object a channel expression names: a variable
// or a struct field (via its selection).
func chanObj(pass *Pass, e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[x]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Defs[x]
	case *ast.SelectorExpr:
		if s, ok := pass.TypesInfo.Selections[x]; ok && s.Kind() == types.FieldVal {
			return s.Obj()
		}
	}
	return nil
}

// chanName renders the channel expression for diagnostics.
func chanName(e ast.Expr) string {
	if s := exprString(e); s != "" {
		return s
	}
	return "channel"
}

// pass2pkg adapts a per-package Pass to the *Package shape the shared
// locks helpers (heldWalk, staticCallee) take.
func pass2pkg(pass *Pass) *Package {
	return &Package{Fset: pass.Fset, Files: pass.Files, Types: pass.Pkg, TypesInfo: pass.TypesInfo}
}
