package minic

import (
	"fmt"
	"strings"
)

// BasicKind enumerates the scalar base types of MiniC.
type BasicKind int

// Scalar base types. DTYPE in the paper's kernels is a #define alias for
// float; VECTOR is a short SIMD vector of float whose lane count is the
// VECTOR_LEN definition (the paper uses 128-bit vectors, i.e. 4 lanes).
const (
	Void BasicKind = iota
	Int
	Float
)

func (b BasicKind) String() string {
	switch b {
	case Void:
		return "void"
	case Int:
		return "int"
	case Float:
		return "float"
	}
	return fmt.Sprintf("BasicKind(%d)", int(b))
}

// Type is a MiniC type: a scalar, a vector of float, a pointer, or an
// N-dimensional array.
type Type struct {
	Basic BasicKind
	Lanes int   // >1 for vector-of-float types
	Ptr   bool  // pointer to the element type described by the rest
	Dims  []int // array dimensions, outermost first
	Elem  *Type // element type for pointers and arrays
}

// A Type is never modified once built, so the two scalar types every
// parse, sema pass and lowering asks for, and pointers to them, are
// shared values.
var (
	typeInt      = &Type{Basic: Int}
	typeFloat    = &Type{Basic: Float}
	typeIntPtr   = &Type{Ptr: true, Elem: typeInt}
	typeFloatPtr = &Type{Ptr: true, Elem: typeFloat}
)

// Convenience constructors.
func TypeVoid() *Type  { return &Type{Basic: Void} }
func TypeInt() *Type   { return typeInt }
func TypeFloat() *Type { return typeFloat }

// TypeVector returns a float vector type with the given lane count.
func TypeVector(lanes int) *Type { return &Type{Basic: Float, Lanes: lanes} }

// TypePointer returns a pointer to elem.
func TypePointer(elem *Type) *Type {
	switch elem {
	case typeInt:
		return typeIntPtr
	case typeFloat:
		return typeFloatPtr
	}
	return &Type{Ptr: true, Elem: elem}
}

// TypeArray returns an array of elem with the given dimensions.
func TypeArray(elem *Type, dims ...int) *Type {
	return &Type{Dims: append([]int(nil), dims...), Elem: elem}
}

// IsScalar reports whether t is a non-vector int or float.
func (t *Type) IsScalar() bool {
	return t != nil && !t.Ptr && len(t.Dims) == 0 && t.Lanes <= 1 && t.Basic != Void
}

// IsVector reports whether t is a float vector.
func (t *Type) IsVector() bool {
	return t != nil && !t.Ptr && len(t.Dims) == 0 && t.Lanes > 1
}

// IsPointer reports whether t is a pointer.
func (t *Type) IsPointer() bool { return t != nil && t.Ptr }

// IsArray reports whether t is an array.
func (t *Type) IsArray() bool { return t != nil && !t.Ptr && len(t.Dims) > 0 }

// IsNumeric reports whether t participates in arithmetic.
func (t *Type) IsNumeric() bool { return t.IsScalar() || t.IsVector() }

// ElemType returns the element type of a pointer or array, or nil.
func (t *Type) ElemType() *Type {
	if t == nil {
		return nil
	}
	if t.Ptr {
		return t.Elem
	}
	if len(t.Dims) == 1 {
		return t.Elem
	}
	if len(t.Dims) > 1 {
		return &Type{Dims: t.Dims[1:], Elem: t.Elem}
	}
	return nil
}

// ScalarWords returns the number of 32-bit words a value of this type
// occupies (scalars = 1, vectors = lane count). Pointers occupy one word of
// address. Arrays return the total element word count.
func (t *Type) ScalarWords() int {
	switch {
	case t == nil:
		return 0
	case t.Ptr:
		return 1
	case len(t.Dims) > 0:
		n := 1
		for _, d := range t.Dims {
			n *= d
		}
		return n * t.Elem.ScalarWords()
	case t.Lanes > 1:
		return t.Lanes
	case t.Basic == Void:
		return 0
	default:
		return 1
	}
}

// SizeBytes returns the byte size of the type (4 bytes per 32-bit word).
func (t *Type) SizeBytes() int { return 4 * t.ScalarWords() }

// Equal reports structural type equality.
func (t *Type) Equal(o *Type) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Ptr != o.Ptr || t.Basic != o.Basic || t.Lanes != o.Lanes || len(t.Dims) != len(o.Dims) {
		return false
	}
	for i := range t.Dims {
		if t.Dims[i] != o.Dims[i] {
			return false
		}
	}
	if t.Elem != nil || o.Elem != nil {
		if t.Elem == nil || o.Elem == nil {
			return false
		}
		return t.Elem.Equal(o.Elem)
	}
	return true
}

func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	if t.Ptr {
		return t.Elem.String() + "*"
	}
	if len(t.Dims) > 0 {
		var b strings.Builder
		b.WriteString(t.Elem.String())
		for _, d := range t.Dims {
			fmt.Fprintf(&b, "[%d]", d)
		}
		return b.String()
	}
	if t.Lanes > 1 {
		return fmt.Sprintf("float<%d>", t.Lanes)
	}
	return t.Basic.String()
}
