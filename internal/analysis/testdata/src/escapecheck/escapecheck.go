// Package escapecheck is a tiresias-vet fixture: the compiler's
// escape analysis witnesses the heap escapes below, and the hotpath
// analyzer reports the ones landing inside //tiresias:hotpath
// functions.
package escapecheck

type node struct {
	next *node
	v    int
}

var global *node

// Leak stores a fresh node where the whole program can see it: a
// certain escape.
//
//tiresias:hotpath
func Leak(v int) {
	n := &node{v: v} // want `escapes to heap`
	global = n
}

// Grow returns a fresh slice: the make escapes through the return.
//
//tiresias:hotpath
func Grow(n int) []int {
	s := make([]int, n) // want `escapes to heap`
	return s
}

// Suppressed pins the ignore path: the same escape as Grow, exempted
// in place.
//
//tiresias:hotpath
func Suppressed(n int) []int {
	return make([]int, n) //tiresias:ignore hotpath (fixture: pinning the suppression path)
}

// cold is unannotated: its escapes are the compiler's business, not
// the hotpath analyzer's.
func cold(n int) []int {
	return make([]int, n)
}
