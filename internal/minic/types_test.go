package minic

import "testing"

func TestTypePredicates(t *testing.T) {
	i := TypeInt()
	f := TypeFloat()
	v := TypeVector(4)
	p := TypePointer(f)
	a := TypeArray(f, 4, 8)

	if !i.IsScalar() || !f.IsScalar() || v.IsScalar() || p.IsScalar() || a.IsScalar() {
		t.Error("IsScalar misclassifies")
	}
	if !v.IsVector() || f.IsVector() {
		t.Error("IsVector misclassifies")
	}
	if !p.IsPointer() || a.IsPointer() {
		t.Error("IsPointer misclassifies")
	}
	if !a.IsArray() || p.IsArray() {
		t.Error("IsArray misclassifies")
	}
	if !i.IsNumeric() || !v.IsNumeric() || p.IsNumeric() {
		t.Error("IsNumeric misclassifies")
	}
	if TypeVoid().IsScalar() {
		t.Error("void is not scalar")
	}
}

func TestTypeElemAndSize(t *testing.T) {
	f := TypeFloat()
	p := TypePointer(f)
	if p.Elem != f {
		t.Error("pointer elem")
	}
	a := TypeArray(f, 4, 8)
	if a.ScalarWords() != 32 || a.SizeBytes() != 128 {
		t.Errorf("array size: %d words %d bytes", a.ScalarWords(), a.SizeBytes())
	}
	v := TypeVector(4)
	if v.ScalarWords() != 4 || v.SizeBytes() != 16 {
		t.Errorf("vector size: %d words", v.ScalarWords())
	}
	if TypeVoid().ScalarWords() != 0 {
		t.Error("void words")
	}
	if p.ScalarWords() != 1 {
		t.Error("pointer words")
	}
	av := TypeArray(TypeVector(4), 8)
	if av.ScalarWords() != 32 {
		t.Errorf("vector array words = %d", av.ScalarWords())
	}
}

func TestTypeEqual(t *testing.T) {
	cases := []struct {
		a, b *Type
		eq   bool
	}{
		{TypeInt(), TypeInt(), true},
		{TypeInt(), TypeFloat(), false},
		{TypeVector(4), TypeVector(4), true},
		{TypeVector(4), TypeVector(8), false},
		{TypePointer(TypeFloat()), TypePointer(TypeFloat()), true},
		{TypePointer(TypeFloat()), TypePointer(TypeInt()), false},
		{TypeArray(TypeFloat(), 4), TypeArray(TypeFloat(), 4), true},
		{TypeArray(TypeFloat(), 4), TypeArray(TypeFloat(), 8), false},
		{TypeArray(TypeFloat(), 4, 2), TypeArray(TypeFloat(), 4), false},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.eq {
			t.Errorf("case %d: Equal(%s, %s) = %v", i, c.a, c.b, got)
		}
	}
	var nilT *Type
	if nilT.Equal(TypeInt()) {
		t.Error("nil type equality")
	}
}

func TestTypeStrings2(t *testing.T) {
	cases := map[string]*Type{
		"int":         TypeInt(),
		"float":       TypeFloat(),
		"void":        TypeVoid(),
		"float<4>":    TypeVector(4),
		"float*":      TypePointer(TypeFloat()),
		"float[4][8]": TypeArray(TypeFloat(), 4, 8),
		"float<4>[2]": TypeArray(TypeVector(4), 2),
	}
	for want, typ := range cases {
		if got := typ.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	var nilT *Type
	if nilT.String() != "<nil>" {
		t.Error("nil string")
	}
}

func TestTokenStrings(t *testing.T) {
	tok := Token{Kind: IDENT, Text: "foo", Pos: Pos{Line: 3, Col: 7}}
	if tok.String() != `identifier("foo")` {
		t.Errorf("token string = %s", tok.String())
	}
	pr := Token{Kind: PRAGMA, Text: "omp critical"}
	if pr.String() != `#pragma "omp critical"` {
		t.Errorf("pragma string = %s", pr.String())
	}
	if (Token{Kind: Plus}).String() != "+" {
		t.Error("op token string")
	}
	if (Pos{Line: 3, Col: 7}).String() != "3:7" {
		t.Error("pos string")
	}
}
