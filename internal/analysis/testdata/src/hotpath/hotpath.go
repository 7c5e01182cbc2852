// Package hotpath is a tiresias-vet fixture exercising the hotpath
// analyzer: the compiler's escape analysis reports the heap escapes
// (the plain cases live in the escapecheck fixture), the syntax rules
// report the allocations inside runtime calls, and every sanctioned
// pattern stays silent.
package hotpath

import "fmt"

type buf struct {
	scratch []int
}

var (
	kept    any
	keptBuf *buf
	keptFn  func()
	keptSl  []int
)

//go:noinline
func sink(v any) bool { _, ok := v.(int); return ok }

//go:noinline
func keep(v any) { kept = v }

//go:noinline
func use(s string) int { return len(s) }

// grow exists to be bound as a method value.
func (b *buf) grow() { b.scratch = b.scratch[:0] }

// stackOnly holds the non-escaping form of each construct the compiler
// judges: none of them allocates, so none is a finding.
//
//tiresias:hotpath
func stackOnly(b *buf, x int) int {
	c := 0
	f := func() { c++ }
	f()
	g := b.grow
	g()
	p := &buf{}
	q := new(buf)
	s := make([]int, 8)
	l := []int{x, 2}
	ok := sink(x)
	_ = ok
	return c + len(p.scratch) + len(q.scratch) + s[0] + l[0]
}

// escaping holds the escaping form of the same constructs: each is a
// finding of the compiler pass.
//
//tiresias:hotpath
func escaping(b *buf, x int) {
	c := 0                  // want `moved to heap: c` `c escapes to heap`
	keptFn = func() { c++ } // want `func literal escapes to heap`
	keptFn = b.grow         // want `b\.grow escapes to heap`
	keptBuf = &buf{}        // want `&buf{} escapes to heap`
	keptBuf = new(buf)      // want `new\(buf\) escapes to heap`
	keptSl = make([]int, 8) // want `make\(\[\]int, 8\) escapes to heap`
	keptSl = []int{x, 2}    // want `\[\]int{\.\.\.} escapes to heap`
	keep(x)                 // want `x escapes to heap`
}

// runtimeCalls holds the allocations escape analysis never reports:
// each is a finding of a syntax rule.
//
//tiresias:hotpath
func runtimeCalls(s string, bs []byte, rs []rune, n int) int {
	m := map[string]int{}   // want `map literal allocates`
	mm := make(map[int]int) // want `make of a map allocates`
	ch := make(chan int, 1) // want `make of a channel allocates`
	s2 := s + "!"           // want `string concatenation allocates`
	s2 += "!"               // want `string concatenation allocates`
	fmt.Println(s)          // want `fmt\.Println allocates` `s escapes to heap`
	b := []byte(s)          // want `string conversion allocates`
	b[0] = 1
	r := []rune(s)       // want `string conversion allocates`
	t := string(bs)      // want `string conversion allocates`
	u := use(string(bs)) // want `string conversion allocates`
	m[string(bs)] = 1    // want `string conversion allocates` `string\(bs\) escapes to heap`
	n += m[string(rs)]   // want `string conversion allocates`
	switch string(bs) {  // want `string conversion allocates`
	case s:
		n++
	}
	var acc []int
	for i := 0; i < n; i++ {
		acc = append(acc, i) // want `append to acc`
	}
	z := make([]int, 0)
	z = append(z, 1) // want `append to z`
	return len(m) + len(mm) + len(ch) + len(s2) + len(b) + len(r) + len(t) + u + len(acc) + len(z)
}

// copyFree holds the conversions gc makes without copying: string(b)
// as a map read, a comparison operand and a switch tag over constant
// cases, and a []byte(s) that is only read and does not escape, which
// the compiler reports as zero-copy (runtimeCalls' b is written, so it
// is copied and a finding).
//
//tiresias:hotpath
func copyFree(m map[string]int, bs []byte, s string) int {
	v := m[string(bs)]
	for _, c := range []byte(s) {
		v += int(c)
	}
	w, ok := m[string(bs)]
	if ok && string(bs) == "x" || string(bs) != "y" {
		v++
	}
	switch string(bs) {
	case "a":
		v++
	}
	return v + w
}

// reuse holds the sanctioned append patterns: a value struct literal,
// an empty slice literal, and append to a field, a parameter, a
// visibly preallocated local and a re-sliced local.
//
//tiresias:hotpath
func reuse(b *buf, dst []int) []int {
	v := buf{}
	_ = v
	empty := []int{}
	_ = empty
	b.scratch = append(b.scratch, 1)
	dst = append(dst, 2)
	q := make([]int, 0, 8)
	q = append(q, 3)
	tmp := dst[:0]
	tmp = append(tmp, q[0])
	return tmp
}

// floats is a named slice type: appending through a conversion to it
// is still an append to the operand's backing array.
type floats []float64

// hotNamedAppend pins append destinations reached through a named
// slice conversion or an index expression.
//
//tiresias:hotpath
func hotNamedAppend(in []float64) float64 {
	var local []float64
	local = append(floats(local), 1) // want `append to local`
	reused := in[:0]
	reused = append(floats(reused), 2) // no finding: reused backing array
	tbl := make([][]int, 1)
	tbl[0] = append(tbl[0], 3) // want `append to tbl\[0\]`
	return local[0] + reused[0] + float64(tbl[0][0])
}

// cold is unannotated: nothing in it is reported.
func cold(n int) []int {
	keptBuf = &buf{scratch: make([]int, 0, 4)}
	return make([]int, n)
}
