// Package slab hands out values and lists from chunks, so a structure
// built node by node (an AST, a CFG) allocates per chunk, not per node.
// A slab belongs to the one call that builds with it; none is shared.
package slab

// Of hands out values of T from chunks that double from 16 values, so
// building N values allocates O(log N) chunks and a type a build makes
// few of wastes little.
type Of[T any] struct {
	free []T
	last int // the size of the last chunk
}

// New returns a copy of v carved from the slab.
func (s *Of[T]) New(v T) *T {
	if len(s.free) == 0 {
		s.last = max(2*s.last, 16)
		s.free = make([]T, s.last)
	}
	p := &s.free[0]
	s.free, *p = s.free[1:], v
	return p
}

// Lists carves lists, from chunks that double from 64 entries, with
// cap == len, so an append to one reallocates instead of overwriting its
// neighbour.
type Lists[T any] struct {
	free []T
	last int
}

// Carve returns a copy of src from the slab, nil when src is empty.
func (s *Lists[T]) Carve(src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	if len(s.free) < n {
		s.last = max(2*s.last, 64, n)
		s.free = make([]T, s.last)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	copy(out, src)
	return out
}
