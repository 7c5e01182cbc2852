package analysis

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// hotpathDirective marks a function whose steady state must not
// allocate; see Hotpath.
const hotpathDirective = "//tiresias:hotpath"

// Hotpath enforces the zero-allocation contract of functions annotated
// //tiresias:hotpath (the directive goes at the end of the function's
// doc comment). It is the static backstop for the AllocsPerRun
// benchmarks: the benchmarks prove today's binary does not allocate,
// the analyzer stops tomorrow's refactor from reintroducing an
// allocation the benchmark corpus happens to miss.
//
// The check has two halves:
//
//   - The compiler's witness. The package is built with
//     `go build -gcflags=-m=2`, and every "escapes to heap" or
//     "moved to heap" diagnostic inside an annotated function is a
//     finding. The gc compiler attributes an inlined callee's escapes
//     to the inlining call site, so a helper inlined into a hot
//     function is covered too. Closures, method values, &T{}, new,
//     make of a slice, slice literals and interface boxing allocate
//     only when they escape, so this half is their whole check.
//   - Syntax rules for allocations that happen inside runtime calls,
//     which escape analysis never reports: calls into fmt; string
//     concatenation; string↔[]byte/[]rune conversions, except
//     string(b) of a byte slice used as a map index (not an assigned
//     one), as a comparison operand or as a switch tag over constant
//     cases, and a []byte(s) the compiler's diagnostics call a
//     "zero-copy string->[]byte conversion" (read-only and not
//     escaping), where gc copies nothing; map literals, make of a map
//     or a channel; and append to a local slice that never reuses a
//     backing array (append to fields, parameters, and locals that are
//     re-sliced or made with capacity is allowed).
//
// The syntax rules are intraprocedural by design: annotate each
// function on the hot path rather than relying on propagation through
// calls. Grow paths that a reuse check keeps off the steady state
// (cap(s) < n → make) are real escapes the compiler cannot rule out;
// exempt them in place with //tiresias:ignore hotpath (reason).
// Packages with no annotated function are skipped without invoking
// the compiler, whose diagnostics replay from the build cache on
// repeated runs.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "fail on heap escapes and runtime-call allocations inside //tiresias:hotpath functions",
	Run:  runHotpath,
}

// hotRange is the body extent of one annotated function, in lines of
// one file.
type hotRange struct {
	fn         string
	start, end int
}

func runHotpath(pass *Pass) error {
	// Hot ranges per file basename; basenames are unique within a
	// package, and the compiler's output paths vary with the build
	// cache's working directory, so the basename is the stable join
	// key.
	hot := map[string][]hotRange{}
	files := map[string]*token.File{}
	var fds []*ast.FuncDecl
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		base := filepath.Base(tf.Name())
		files[base] = tf
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, hotpathDirective) {
				continue
			}
			fds = append(fds, fd)
			hot[base] = append(hot[base], hotRange{
				fn:    fd.Name.Name,
				start: pass.Fset.Position(fd.Pos()).Line,
				end:   pass.Fset.Position(fd.Body.End()).Line,
			})
		}
	}
	if len(hot) == 0 {
		return nil
	}
	zeroCopy, err := reportEscapes(pass, hot, files)
	if err != nil {
		return err
	}
	for _, fd := range fds {
		checkHotFunc(pass, fd, zeroCopy)
	}
	return nil
}

// escapeDiagRe matches one compiler diagnostic line:
// path.go:line:col: message.
var escapeDiagRe = regexp.MustCompile(`^(.*\.go):(\d+):(\d+): (\S.*)$`)

// zeroCopyMsg is the compiler's diagnostic for a []byte(s) it converts
// without copying: the slice is only read and does not escape.
const zeroCopyMsg = "zero-copy string->[]byte conversion"

// reportEscapes builds the package with escape diagnostics, reports
// each heap escape that lands inside a hot range, and returns the
// positions of the zero-copy conversions the compiler names.
func reportEscapes(pass *Pass, hot map[string][]hotRange, files map[string]*token.File) ([]token.Pos, error) {
	if pass.Dir == "" {
		return nil, fmt.Errorf("package %s has no source directory", pass.Pkg.Path())
	}
	// The go tool resolves the module from the working directory, so
	// run the build from inside the package itself. -m=2 output is part
	// of the cache key, so the first run per toolchain pays one compile.
	cmd := exec.Command("go", "build", "-gcflags=-m=2", ".")
	cmd.Dir = pass.Dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m=2 in %s: %v\n%s", pass.Dir, err, out)
	}

	var zeroCopy []token.Pos
	seen := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := escapeDiagRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		msg := strings.TrimSuffix(m[4], ":")
		base := filepath.Base(m[1])
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		if msg == zeroCopyMsg && files[base] != nil {
			zeroCopy = append(zeroCopy, diagPos(files[base], line, col))
			continue
		}
		if !strings.HasSuffix(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
			continue
		}
		var fn string
		for _, r := range hot[base] {
			if line >= r.start && line <= r.end {
				fn = r.fn
				break
			}
		}
		if fn == "" {
			continue
		}
		key := fmt.Sprintf("%s:%d:%d:%s", base, line, col, msg)
		if seen[key] {
			// -m=2 prints each escape twice: once heading its flow
			// trace, once in the plain -m summary.
			continue
		}
		seen[key] = true
		pass.Reportf(diagPos(files[base], line, col), "hot path %s: %s (compiler escape analysis)", fn, msg)
	}
	return zeroCopy, sc.Err()
}

// diagPos resolves a compiler file/line/col diagnostic to a token.Pos
// in tf, clamping the column to the line.
func diagPos(tf *token.File, line, col int) token.Pos {
	if line < 1 || line > tf.LineCount() {
		return tf.Pos(0)
	}
	p := tf.LineStart(line) + token.Pos(col-1)
	if int(p) >= tf.Base()+tf.Size() {
		return tf.LineStart(line)
	}
	return p
}

// hasDirective reports whether the comment group contains the given
// directive comment (exactly, modulo trailing text after a space).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// checkHotFunc applies the syntax rules to one annotated function
// body. ast.Inspect visits a parent before its children, so a
// comparison, map index or switch marks its string(b) operands
// copy-free before the conversion itself is visited. zeroCopy holds
// the positions of the compiler's zero-copy []byte(s) conversions.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl, zeroCopy []token.Pos) {
	reusable := reusableSlices(pass, fd)
	name := fd.Name.Name
	assigned := map[ast.Expr]bool{}
	copyFree := map[ast.Expr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[x]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(x.Pos(), "hot path %s: map literal allocates", name)
				}
			}
		case *ast.BinaryExpr:
			switch x.Op {
			case token.ADD:
				if isStringType(pass, x.X) {
					pass.Reportf(x.Pos(), "hot path %s: string concatenation allocates", name)
				}
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				copyFree[x.X], copyFree[x.Y] = true, true
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(pass, x.Lhs[0]) {
				pass.Reportf(x.Pos(), "hot path %s: string concatenation allocates", name)
			}
			for _, lhs := range x.Lhs {
				assigned[lhs] = true
			}
		case *ast.IncDecStmt:
			assigned[x.X] = true
		case *ast.IndexExpr:
			// A map read keys its lookup on the byte slice itself; a map
			// write stores the key, so it copies.
			if tv, ok := pass.TypesInfo.Types[x.X]; ok && !assigned[x] {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					copyFree[x.Index] = true
				}
			}
		case *ast.SwitchStmt:
			if x.Tag != nil && constantCases(pass, x) {
				copyFree[x.Tag] = true
			}
		case *ast.CallExpr:
			checkHotCall(pass, name, x, reusable, copyFree[x], zeroCopyAt(x, zeroCopy))
		}
		return true
	})
}

// zeroCopyAt reports whether the compiler named a zero-copy conversion
// inside call's one argument, where gc places a conversion's position.
func zeroCopyAt(call *ast.CallExpr, zeroCopy []token.Pos) bool {
	if len(call.Args) != 1 {
		return false
	}
	arg := call.Args[0]
	return slices.ContainsFunc(zeroCopy, func(p token.Pos) bool { return p >= arg.Pos() && p < arg.End() })
}

// constantCases reports whether every case expression of sw is a
// constant: only then does gc switch on string(b) without copying.
func constantCases(pass *Pass, sw *ast.SwitchStmt) bool {
	for _, s := range sw.Body.List {
		for _, e := range s.(*ast.CaseClause).List {
			if pass.TypesInfo.Types[e].Value == nil {
				return false
			}
		}
	}
	return true
}

// checkHotCall flags fmt calls, make of a map or channel, string
// conversions, and un-preallocated appends. copyFree marks a call in a
// position where gc converts string(b) without copying, zeroCopy a call
// the compiler reports as a zero-copy []byte(s).
func checkHotCall(pass *Pass, fn string, call *ast.CallExpr, reusable map[types.Object]bool, copyFree, zeroCopy bool) {
	switch funExpr := call.Fun.(type) {
	case *ast.Ident:
		if !isBuiltin(pass, funExpr) {
			break
		}
		switch funExpr.Name {
		case "make":
			tv, ok := pass.TypesInfo.Types[call]
			if !ok {
				return
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(call.Pos(), "hot path %s: make of a map allocates", fn)
			case *types.Chan:
				pass.Reportf(call.Pos(), "hot path %s: make of a channel allocates", fn)
			}
		case "append":
			if len(call.Args) > 0 {
				checkAppendDst(pass, fn, call, call.Args[0], reusable)
			}
		}
		return
	case *ast.SelectorExpr:
		if obj, ok := pass.TypesInfo.Uses[funExpr.Sel]; ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "hot path %s: fmt.%s allocates (formatting state and boxed operands)", fn, funExpr.Sel.Name)
			return
		}
	}

	// Conversions: string([]byte), []byte(string), []rune(string),
	// string(rune-slice) all copy into a fresh allocation, except
	// string(b) of a byte slice in a copy-free position and a zero-copy
	// []byte(s).
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, pass.TypesInfo.Types[call.Args[0]].Type
		if from == nil || copyFree && isString(to) && isSliceOf(from, types.Byte) || zeroCopy && isSliceOf(to, types.Byte) && isString(from) {
			return
		}
		if isString(to) && isByteOrRuneSlice(from) || isByteOrRuneSlice(to) && isString(from) {
			pass.Reportf(call.Pos(), "hot path %s: string conversion allocates", fn)
		}
	}
}

// checkAppendDst judges one append destination, allowing it when the
// slice reuses a backing array: a struct field, a parameter, or a
// local that is somewhere re-sliced or made with capacity. A plain
// `var s []T` local that is appended to grows on the heap every call.
// Parenthesization and conversions to named slice types
// (append(floats(buf), x) appends to buf's array) are unwrapped.
func checkAppendDst(pass *Pass, fn string, call *ast.CallExpr, dst ast.Expr, reusable map[types.Object]bool) {
	switch d := dst.(type) {
	case *ast.ParenExpr:
		checkAppendDst(pass, fn, call, d.X, reusable)
	case *ast.CallExpr:
		// A conversion through a named slice type is transparent to the
		// backing array; judge the operand.
		if tv, ok := pass.TypesInfo.Types[d.Fun]; ok && tv.IsType() && len(d.Args) == 1 {
			checkAppendDst(pass, fn, call, d.Args[0], reusable)
		}
	case *ast.Ident, *ast.IndexExpr:
		// A field (s.buf, s.bufs[i]) is pooled/reused by convention; a
		// local, or a local indexed into, must reuse its backing array.
		id, ok := d.(*ast.Ident)
		if ix, isIndex := d.(*ast.IndexExpr); isIndex {
			id, ok = ix.X.(*ast.Ident)
		}
		if !ok {
			return
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && !reusable[obj] {
			pass.Reportf(call.Pos(), "hot path %s: append to %s, which is never preallocated (use a reused buffer or make with capacity)", fn, exprString(d))
		}
	}
}

// reusableSlices collects the slice objects append may target without
// a diagnostic: parameters, named results, and locals that are
// visibly given a reusable backing array (x = x[:0], x = make(T, n,
// c), x = x[:k]) anywhere in the function.
func reusableSlices(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	ok := map[types.Object]bool{}
	mark := func(id *ast.Ident) {
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			ok[obj] = true
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, n := range f.Names {
				mark(n)
			}
		}
	}
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			for _, n := range f.Names {
				mark(n)
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, isAssign := n.(*ast.AssignStmt)
		if !isAssign {
			return true
		}
		for i, lhs := range as.Lhs {
			id, isIdent := lhs.(*ast.Ident)
			if !isIdent || i >= len(as.Rhs) {
				continue
			}
			switch rhs := as.Rhs[i].(type) {
			case *ast.SliceExpr:
				// x = y[:...] re-slices an existing backing array.
				markUse(pass, ok, id)
			case *ast.CallExpr:
				if fun, isId := rhs.Fun.(*ast.Ident); isId && fun.Name == "make" && isBuiltin(pass, fun) && len(rhs.Args) == 3 {
					// make with explicit capacity: a deliberate
					// preallocation the appends then fill.
					markUse(pass, ok, id)
				}
			}
		}
		return true
	})
	return ok
}

// markUse records the object behind id whether the identifier defines
// it (:=) or uses it (=).
func markUse(pass *Pass, set map[types.Object]bool, id *ast.Ident) {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		set[obj] = true
	} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
		set[obj] = true
	}
}

// isBuiltin reports whether id resolves to a universe-scope builtin.
func isBuiltin(pass *Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// isStringType reports whether e's static type is a string.
func isStringType(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Type != nil && isString(tv.Type)
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	return isSliceOf(t, types.Byte) || isSliceOf(t, types.Rune)
}

// isSliceOf reports whether t is a slice of the basic kind elem.
func isSliceOf(t types.Type, elem types.BasicKind) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == elem
}
