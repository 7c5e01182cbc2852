package algo

import "math/bits"

// idSet is an ordered set of small non-negative integers: a 64-ary
// bitmap trie in which bit i of level l+1 is set iff word i of level l
// is non-zero, topped by a single word. Add, remove and popMax cost
// O(levels) and an ascending walk costs O(size·levels), so with one
// set per depth putting k node IDs in level order is O(k) — independent
// of how many nodes the tree holds, and without a comparison sort when
// k is the whole tree.
//
// The zero value is an empty set of capacity 0; grow before adding.
type idSet struct {
	levels [][]uint64 // levels[0] holds the members; the last level is one word
}

// grow extends the set's capacity to hold values in [0, n), keeping its
// members. It allocates only when n outgrows the current capacity.
func (s *idSet) grow(n int) {
	if len(s.levels) > 0 && n <= len(s.levels[0])<<6 {
		return
	}
	for l := 0; ; l++ {
		words := (n + 63) >> 6
		if words < 1 {
			words = 1
		}
		if l == len(s.levels) {
			// A new top level summarizes the (already grown) level below.
			top := make([]uint64, words)
			if l > 0 {
				for i, w := range s.levels[l-1] {
					if w != 0 {
						top[i>>6] |= 1 << (i & 63)
					}
				}
			}
			s.levels = append(s.levels, top)
		} else if len(s.levels[l]) < words {
			s.levels[l] = append(s.levels[l], make([]uint64, words-len(s.levels[l]))...)
		}
		if words == 1 {
			return
		}
		n = words
	}
}

// add inserts i, which must be below the grown capacity, and reports
// whether it was absent.
//
//tiresias:hotpath
func (s *idSet) add(i int32) bool {
	w := &s.levels[0][i>>6]
	if *w&(1<<(i&63)) != 0 {
		return false
	}
	for l := 0; ; l++ {
		was := *w
		*w = was | 1<<(i&63)
		if was != 0 || l+1 == len(s.levels) {
			return true
		}
		i >>= 6
		w = &s.levels[l+1][i>>6]
	}
}

// remove deletes i if present.
//
//tiresias:hotpath
func (s *idSet) remove(i int32) {
	for l := range s.levels {
		w := &s.levels[l][i>>6]
		*w &^= 1 << (i & 63)
		if *w != 0 {
			return
		}
		i >>= 6
	}
}

// has reports whether i, which must be below the grown capacity, is a
// member.
//
//tiresias:hotpath
func (s *idSet) has(i int32) bool {
	return s.levels[0][i>>6]&(1<<(i&63)) != 0
}

// popMax removes and returns the largest member, or -1 when the set is
// empty.
//
//tiresias:hotpath
func (s *idSet) popMax() int32 {
	top := len(s.levels) - 1
	if top < 0 || s.levels[top][0] == 0 {
		return -1
	}
	i := int32(0)
	for l := top; l >= 0; l-- {
		i = i<<6 | int32(63-bits.LeadingZeros64(s.levels[l][i]))
	}
	s.remove(i)
	return i
}

// appendTo appends the members to dst in ascending order. With drain
// set it also empties the set, at no extra cost.
//
//tiresias:hotpath
func (s *idSet) appendTo(dst []int32, drain bool) []int32 {
	if len(s.levels) == 0 {
		return dst
	}
	return s.walk(len(s.levels)-1, 0, dst, drain)
}

// walk visits the set bits of word w of level l in ascending order,
// descending to level 0 where the members live.
//
//tiresias:hotpath
func (s *idSet) walk(l int, w int32, dst []int32, drain bool) []int32 {
	word := s.levels[l][w]
	if drain {
		s.levels[l][w] = 0
	}
	for ; word != 0; word &= word - 1 {
		i := w<<6 | int32(bits.TrailingZeros64(word))
		if l == 0 {
			dst = append(dst, i)
		} else {
			dst = s.walk(l-1, i, dst, drain)
		}
	}
	return dst
}
