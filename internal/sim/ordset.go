package sim

import "math/bits"

// ordSet is a set of small non-negative integers walked in increasing
// order, one bit per member. A walk is a chain of next calls, each of which
// re-reads the words, so a member added ahead of the walk's position is
// reached by it and one added behind waits for the next walk (stepDue's
// same-cycle rule rests on this). It grows on add, so neither the thread
// count nor the nest depth is bounded by a word.
type ordSet []uint64

func (s *ordSet) add(i int) {
	w := i >> 6
	for w >= len(*s) {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (i & 63)
}

// del removes i, which must lie inside the words add has grown.
func (s ordSet) del(i int) { s[i>>6] &^= 1 << (i & 63) }

// next returns the smallest member >= i, or -1 when there is none.
func (s ordSet) next(i int) int {
	w := i >> 6
	if w >= len(s) {
		return -1
	}
	if b := s[w] >> (i & 63); b != 0 {
		return i + bits.TrailingZeros64(b)
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return w<<6 + bits.TrailingZeros64(s[w])
		}
	}
	return -1
}

func (s ordSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}
