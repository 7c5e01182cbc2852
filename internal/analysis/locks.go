package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Locks checks the locking contract. Its rules all read one held-lock
// model, heldWalk, run once over every function of every loaded
// package:
//
//   - guarded fields: a struct field whose doc or trailing comment
//     says "guarded by <mu>" (<mu> a sync.Mutex or sync.RWMutex field
//     of the same struct) may only be accessed where base.mu is held
//     on the same base expression, unless the function's doc declares
//     the lock-held precondition ("... must be held", "The caller
//     holds mu"), delegating the obligation to its callers;
//   - re-entrant acquisition: taking a mutex the function (or a
//     callee, transitively) already holds — same instance is a certain
//     self-deadlock, same class a hazard that needs an explicit order;
//   - cycles in the class graph: two code paths that take the same
//     two locks in opposite orders can deadlock under concurrency
//     even though each path is locally correct;
//   - violations of the declared hierarchy: package docs declare the
//     intended order with //tiresias:lockorder A < B < C directives,
//     and every observed edge between declared classes must follow it
//     — an undeclared or reversed edge is a finding, so the hierarchy
//     in the docs is checked, not aspirational.
//
// A lock class is a mutex identity that survives instances:
// "Type.field" for a struct-field mutex (managerShard.mu, Index.mu),
// "pkg.var" for a package-level one. The order rules follow static
// calls across packages to build the acquires-while-holding graph over
// classes. Entry points may declare their transitive lock footprint
// with //tiresias:acquires C1, C2 (or //tiresias:acquires nothing) in
// their doc comment; the analyzer verifies the computed footprint stays
// within the declaration, so the documented contract of
// Snapshot/Restore/Checkpoint cannot silently grow a new lock
// dependency.
//
// Calls through function values and interfaces contribute no edges
// (declare those paths with //tiresias:lockorder instead — e.g. an
// observer callback invoked under a shard lock).
var Locks = &Analyzer{
	Name:      "locks",
	Doc:       `check the locking contract: "guarded by <mu>" fields accessed with the mutex held; lock order acyclic, not re-entrant, and within the declared //tiresias:lockorder hierarchy`,
	RunModule: runLocks,
}

// lockorderDirective declares a fragment of the intended hierarchy in
// a package doc comment: //tiresias:lockorder A < B < C.
const lockorderDirective = "//tiresias:lockorder"

// acquiresDirective declares a function's transitive lock footprint in
// its doc comment: //tiresias:acquires A, B (or "nothing").
const acquiresDirective = "//tiresias:acquires"

// guardedRe extracts the mutex field name from a field comment.
var guardedRe = regexp.MustCompile(`(?i)guarded by (\w+)`)

// heldDocRe matches function docs that declare a lock-held
// precondition, e.g. "The shard lock must be held." or "The caller
// holds mu."
var heldDocRe = regexp.MustCompile(`(?i)(lock )?must be held|caller (must )?holds?`)

// heldLock is one mutex the simulation considers held: its class and
// the printed base expression identifying the instance.
type heldLock struct {
	class string
	base  string
}

// String renders the held instance as written: "sh.mu" for class
// managerShard.mu on base sh.
func (h heldLock) String() string {
	return h.base + "." + h.class[strings.LastIndexByte(h.class, '.')+1:]
}

// heldWalk is the one simulation of which locks are held at each node
// of a function body. It walks body in source order and calls
// visit(n, held, acq) before each node n, with held the locks held
// there (earliest first) and acq the lock n itself takes (a Lock or
// RLock call; the zero heldLock otherwise). visit must not retain held.
//
// Only type-checked sync mutex operations count (mutexOp). The model
// is positional, not path-sensitive: a lock is held from its Lock to
// the next non-deferred Unlock of the same instance, and a deferred
// unlock holds it to the function's end. That is the shape of every
// critical section in this codebase (lock → touch → unlock, or lock →
// defer unlock), and it rejects mu.Lock(); mu.Unlock(); touch. A
// function literal — a goroutine body included — is walked under the
// locks held where it is created (a goroutine spawned under ckptMu
// inherits the ordering obligation: the checkpoint fan-out shape), and
// what it locks, or releases at its own end, does not leak out.
func heldWalk(pkg *Package, body *ast.BlockStmt, visit func(n ast.Node, held []heldLock, acq heldLock)) {
	var held []heldLock
	var walk func(root ast.Node, deferred bool)
	walk = func(root ast.Node, deferred bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			var class, base, op string
			if call, ok := n.(*ast.CallExpr); ok {
				class, base, op = mutexOp(pkg, call)
			}
			var acq heldLock
			if op == "Lock" || op == "RLock" {
				acq = heldLock{class: class, base: base}
			}
			visit(n, held, acq)
			switch x := n.(type) {
			case *ast.DeferStmt:
				walk(x.Call, true)
				return false
			case *ast.FuncLit:
				saved := slices.Clone(held)
				walk(x.Body, false)
				held = saved
				return false
			}
			if acq.class != "" {
				held = append(held, acq)
			} else if op != "" && !deferred { // Unlock, RUnlock
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == (heldLock{class: class, base: base}) {
						held = slices.Delete(held, i, i+1)
						break
					}
				}
			}
			return true
		})
	}
	walk(body, false)
}

// loAcquire is one observed acquisition with the locks held at it.
type loAcquire struct {
	heldLock
	pos  token.Pos
	held []heldLock
}

// loCall is one static call with the locks held at it.
type loCall struct {
	callee string // types.Func FullName
	pos    token.Pos
	held   []heldLock
}

// loFunc is the per-function fact sheet phase one extracts.
type loFunc struct {
	name     string
	pkg      *Package
	pos      token.Pos
	acquires []loAcquire
	calls    []loCall
	declared map[string]bool // //tiresias:acquires classes (nil: undeclared)
}

// loEdge is one acquires-while-holding edge with its first witness.
type loEdge struct {
	from, to string
	pkg      *Package
	pos      token.Pos
	detail   string
}

func runLocks(pass *ModulePass) error {
	funcs := map[string]*loFunc{}
	var order []string // deterministic iteration
	declEdges := map[[2]string]*loEdge{}
	for _, pkg := range pass.Pkgs {
		collectLockorderDecls(pkg, declEdges)
		guards := collectGuards(pkg)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				lf := walkLockFunc(pass, pkg, fd, guards)
				if obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					funcs[obj.FullName()] = lf
					order = append(order, obj.FullName())
				}
			}
		}
	}

	// Transitive acquisition sets, to a fixpoint (the call graph can
	// be cyclic).
	trans := map[string]map[string]bool{}
	for name, lf := range funcs {
		set := map[string]bool{}
		for _, a := range lf.acquires {
			set[a.class] = true
		}
		trans[name] = set
	}
	for changed := true; changed; {
		changed = false
		for name, lf := range funcs {
			set := trans[name]
			for _, c := range lf.calls {
				for cls := range trans[c.callee] {
					if !set[cls] {
						set[cls] = true
						changed = true
					}
				}
			}
		}
	}

	// Edges and re-entrancy.
	edges := map[[2]string]*loEdge{}
	addEdge := func(from, to string, pkg *Package, pos token.Pos, detail string) {
		key := [2]string{from, to}
		if _, ok := edges[key]; !ok {
			edges[key] = &loEdge{from: from, to: to, pkg: pkg, pos: pos, detail: detail}
		}
	}
	for _, name := range order {
		lf := funcs[name]
		for _, a := range lf.acquires {
			for _, h := range a.held {
				if h.class == a.class {
					if h.base == a.base {
						pass.Reportf(lf.pkg, a.pos, "re-entrant lock of %s (%s is already held here — certain self-deadlock)", a.class, a.base)
					} else {
						pass.Reportf(lf.pkg, a.pos, "%s acquires a second %s while holding %s (two instances of one lock class need an explicit instance order)", lf.name, a.class, h.base)
					}
					continue
				}
				addEdge(h.class, a.class, lf.pkg, a.pos, fmt.Sprintf("%s locks %s while holding %s", lf.name, a.class, h.class))
			}
		}
		for _, c := range lf.calls {
			callee, ok := funcs[c.callee]
			if !ok {
				continue
			}
			for cls := range trans[c.callee] {
				for _, h := range c.held {
					if h.class == cls {
						pass.Reportf(lf.pkg, c.pos, "%s calls %s while holding %s, which %s acquires (transitively) — potential self-deadlock", lf.name, callee.name, h.class, callee.name)
						continue
					}
					addEdge(h.class, cls, lf.pkg, c.pos, fmt.Sprintf("%s calls %s while holding %s; %s acquires %s", lf.name, callee.name, h.class, callee.name, cls))
				}
			}
		}
	}

	reportLockCycles(pass, edges)
	checkDeclaredOrder(pass, edges, declEdges)
	checkAcquiresDecls(pass, funcs, order, trans)
	return nil
}

// walkLockFunc runs one function body through heldWalk once for every
// rule: it reports each guarded-field access made without its mutex
// held (unless the doc declares the lock-held precondition), and
// records each acquisition and static call, with the locks held at it,
// for the order rules.
func walkLockFunc(pass *ModulePass, pkg *Package, fd *ast.FuncDecl, guards map[types.Object]string) *loFunc {
	lf := &loFunc{name: fd.Name.Name, pkg: pkg, pos: fd.Pos(), declared: parseAcquiresDecl(fd.Doc)}
	if fd.Recv != nil {
		if tn := recvTypeName(pkg, fd); tn != "" {
			lf.name = tn + "." + fd.Name.Name
		}
	}
	checkGuards := len(guards) > 0 && (fd.Doc == nil || !heldDocRe.MatchString(fd.Doc.Text()))
	heldWalk(pkg, fd.Body, func(n ast.Node, held []heldLock, acq heldLock) {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if checkGuards {
				checkGuarded(pass, pkg, x, held, guards)
			}
		case *ast.CallExpr:
			if acq.class != "" {
				lf.acquires = append(lf.acquires, loAcquire{heldLock: acq, pos: x.Pos(), held: slices.Clone(held)})
			} else if callee := staticCallee(pkg, x); callee != nil {
				lf.calls = append(lf.calls, loCall{callee: callee.FullName(), pos: x.Pos(), held: slices.Clone(held)})
			}
		}
	})
	return lf
}

// checkGuarded reports sel when it selects a guarded field and no held
// lock is the field's mutex on the same base expression.
func checkGuarded(pass *ModulePass, pkg *Package, sel *ast.SelectorExpr, held []heldLock, guards map[types.Object]string) {
	s, ok := pkg.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	mu, ok := guards[s.Obj()]
	if !ok {
		return
	}
	base := exprString(sel.X)
	if base != "" && slices.ContainsFunc(held, func(h heldLock) bool { return h.String() == base+"."+mu }) {
		return
	}
	pass.Reportf(pkg, sel.Pos(), "%s.%s is guarded by %s.%s, which is not held here (lock it, or document the function's lock-held precondition)",
		base, sel.Sel.Name, base, mu)
}

// mutexOp recognizes base.mu.Lock()/RLock()/Unlock()/RUnlock() on a
// sync.Mutex or sync.RWMutex and returns the lock class, the printed
// base expression (the instance), and the operation; class "" when the
// call is not a mutex operation the analysis can classify.
func mutexOp(pkg *Package, call *ast.CallExpr) (class, base, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", ""
	}
	obj, ok := pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", ""
	}
	switch mu := sel.X.(type) {
	case *ast.SelectorExpr:
		// base.mu.Lock(): class is OwnerType.field.
		if s, ok := pkg.TypesInfo.Selections[mu]; ok && s.Kind() == types.FieldVal {
			if named := namedOf(s.Recv()); named != "" {
				return named + "." + mu.Sel.Name, exprString(mu.X), sel.Sel.Name
			}
		}
		// pkg.mu.Lock(): a mutex var of an imported package.
		if id, ok := mu.X.(*ast.Ident); ok {
			if pn, ok := pkg.TypesInfo.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Name() + "." + mu.Sel.Name, pn.Imported().Name(), sel.Sel.Name
			}
		}
	case *ast.Ident:
		// mu.Lock() on a package-level mutex var.
		if v, ok := pkg.TypesInfo.Uses[mu].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + mu.Name, v.Pkg().Name(), sel.Sel.Name
		}
	}
	return "", "", ""
}

// namedOf unwraps pointers and returns the named type's name, "" for
// unnamed receivers.
func namedOf(t types.Type) string {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// staticCallee resolves a call to its *types.Func when the callee is
// statically known (plain function or method on a concrete receiver);
// nil for builtins, conversions, function values, and interface
// methods.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		if s, ok := pkg.TypesInfo.Selections[fun]; ok && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv().Underlying()) {
				return nil
			}
		}
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// recvTypeName returns the receiver's type name for diagnostics.
func recvTypeName(pkg *Package, fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	if obj := pkg.TypesInfo.Defs[fd.Name].(*types.Func); obj != nil {
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			return namedOf(sig.Recv().Type())
		}
	}
	return ""
}

// collectLockorderDecls parses //tiresias:lockorder A < B < C chains
// from the package doc comments into declared edges.
func collectLockorderDecls(pkg *Package, edges map[[2]string]*loEdge) {
	for _, f := range pkg.Files {
		if f.Doc == nil {
			continue
		}
		for _, c := range f.Doc.List {
			text, ok := strings.CutPrefix(c.Text, lockorderDirective)
			if !ok || (text != "" && text[0] != ' ' && text[0] != '\t') {
				continue
			}
			parts := strings.Split(text, "<")
			var chain []string
			for _, p := range parts {
				if p = strings.TrimSpace(p); p != "" {
					chain = append(chain, p)
				}
			}
			for i := 0; i+1 < len(chain); i++ {
				key := [2]string{chain[i], chain[i+1]}
				if _, ok := edges[key]; !ok {
					edges[key] = &loEdge{from: chain[i], to: chain[i+1], pkg: pkg, pos: c.Pos()}
				}
			}
		}
	}
}

// parseAcquiresDecl parses a //tiresias:acquires directive from a
// function doc comment; nil means no declaration, an empty set means
// "acquires nothing".
func parseAcquiresDecl(doc *ast.CommentGroup) map[string]bool {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, acquiresDirective)
		if !ok || (text != "" && text[0] != ' ' && text[0] != '\t') {
			continue
		}
		set := map[string]bool{}
		for _, name := range strings.FieldsFunc(text, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
			if name != "nothing" {
				set[name] = true
			}
		}
		return set
	}
	return nil
}

// reportLockCycles finds cycles in the observed class graph and
// reports each once, at its lexicographically smallest member's
// witness edge.
func reportLockCycles(pass *ModulePass, edges map[[2]string]*loEdge) {
	adj := map[string][]string{}
	for key := range edges {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	for from := range adj {
		sort.Strings(adj[from])
	}
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	reported := map[string]bool{}
	var path []string
	onPath := map[string]bool{}
	var dfs func(n string)
	dfs = func(n string) {
		path = append(path, n)
		onPath[n] = true
		for _, next := range adj[n] {
			if onPath[next] {
				// Cycle: the path suffix from next to n, closed.
				i := 0
				for path[i] != next {
					i++
				}
				cycle := append(append([]string(nil), path[i:]...), next)
				min := 0
				for j, c := range cycle[:len(cycle)-1] {
					if c < cycle[min] {
						min = j
					}
				}
				canon := append(append([]string(nil), cycle[min:len(cycle)-1]...), cycle[:min+1]...)
				key := strings.Join(canon, "→")
				if !reported[key] {
					reported[key] = true
					e := edges[[2]string{canon[0], canon[1]}]
					pass.Reportf(e.pkg, e.pos, "lock-order cycle: %s (%s) — two paths can take these locks in opposite orders and deadlock", strings.Join(canon, " → "), e.detail)
				}
				continue
			}
			dfs(next)
		}
		path = path[:len(path)-1]
		onPath[n] = false
	}
	for _, n := range nodes {
		dfs(n)
	}
}

// checkDeclaredOrder verifies every observed edge between declared
// classes against the declared hierarchy's transitive closure.
func checkDeclaredOrder(pass *ModulePass, edges, declEdges map[[2]string]*loEdge) {
	if len(declEdges) == 0 {
		return
	}
	declared := map[string]bool{}
	adj := map[string][]string{}
	for key := range declEdges {
		declared[key[0]], declared[key[1]] = true, true
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	reach := func(from, to string) bool {
		seen := map[string]bool{from: true}
		queue := []string{from}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, next := range adj[n] {
				if next == to {
					return true
				}
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
		return false
	}

	keys := make([][2]string, 0, len(edges))
	for key := range edges {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
	})
	for _, key := range keys {
		from, to := key[0], key[1]
		if !declared[from] || !declared[to] || reach(from, to) {
			continue
		}
		e := edges[key]
		if reach(to, from) {
			pass.Reportf(e.pkg, e.pos, "lock order violation: %s (declared hierarchy orders %s before %s)", e.detail, to, from)
		} else {
			pass.Reportf(e.pkg, e.pos, "undeclared lock-order edge: %s (add '%s < %s' to a //tiresias:lockorder declaration, or reorder)", e.detail, from, to)
		}
	}
}

// checkAcquiresDecls verifies every //tiresias:acquires declaration
// covers the function's computed transitive footprint.
func checkAcquiresDecls(pass *ModulePass, funcs map[string]*loFunc, order []string, trans map[string]map[string]bool) {
	for _, name := range order {
		lf := funcs[name]
		if lf.declared == nil {
			continue
		}
		var missing []string
		for cls := range trans[name] {
			if !lf.declared[cls] {
				missing = append(missing, cls)
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			pass.Reportf(lf.pkg, lf.pos, "%s acquires %s but its //tiresias:acquires declaration does not list it", lf.name, strings.Join(missing, ", "))
		}
	}
}

// collectGuards scans the package's struct type declarations for
// fields annotated "guarded by <mu>", mapping each field's
// types.Object to its mutex field name.
func collectGuards(pkg *Package) map[types.Object]string {
	guards := map[types.Object]string{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardName(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pkg.TypesInfo.Defs[name]; obj != nil {
						guards[obj] = mu
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardName extracts the mutex name from a field's doc or trailing
// comment ("" when the field is not annotated).
func guardName(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// exprString renders simple base expressions (identifiers, selector
// chains, index expressions) for matching and diagnostics; other
// shapes render as "" and are treated as unmatched.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if b := exprString(x.X); b != "" {
			return b + "." + x.Sel.Name
		}
	case *ast.IndexExpr:
		if b := exprString(x.X); b != "" {
			return b + "[" + exprString(x.Index) + "]"
		}
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return exprString(x.X)
	case *ast.BasicLit:
		return x.Value
	}
	return ""
}
