// Package slab hands out values and lists from chunks, so a structure
// built node by node (an AST, a CFG) allocates per chunk, not per node.
// A slab belongs to the one call that builds with it; none is shared.
// Chunks double up to about 8 KiB, so the unused tail of a large slab's
// last chunk stays small.
package slab

import "unsafe"

// fit returns how many values of T fit in about n bytes, at least one.
func fit[T any](n int) int {
	var v T
	return max(n/max(int(unsafe.Sizeof(v)), 1), 1)
}

// Of hands out values of T from chunks that double from 16 values, so
// a build allocates few chunks and a type it makes few of wastes little.
type Of[T any] struct {
	free []T
	last int // the size of the last chunk
}

// New returns a copy of v carved from the slab.
func (s *Of[T]) New(v T) *T {
	if len(s.free) == 0 {
		s.Reserve(min(max(2*s.last, 16), fit[T](8<<10)))
	}
	p := &s.free[0]
	s.free, *p = s.free[1:], v
	return p
}

// Reserve makes the next n values one chunk, for a caller that knows how
// many it will make.
func (s *Of[T]) Reserve(n int) {
	if len(s.free) < n {
		s.last, s.free = n, make([]T, n)
	}
}

// Lists carves lists from chunks that double from 64 entries or about
// 1 KiB, the fewer, with cap == len, so an append to one reallocates
// instead of overwriting its neighbour.
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
		s.last = max(min(2*s.last, fit[T](8<<10)), min(64, fit[T](1<<10)), n)
		s.free = make([]T, s.last)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	copy(out, src)
	return out
}
