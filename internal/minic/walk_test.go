package minic

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"reflect"
	"sort"
	"testing"
)

// allNodes holds one instance of every statement and expression type.
// TestNodeListMatchesAST keeps it in step with ast.go.
func allNodes() []Node {
	return []Node{
		&BlockStmt{}, &DeclStmt{}, &ExprStmt{}, &ForStmt{}, &IfStmt{}, &ReturnStmt{},
		&CriticalStmt{}, &BarrierStmt{}, &TargetStmt{},
		&Ident{}, &IntLit{}, &FloatLit{}, &Binary{}, &Unary{}, &Cond{}, &Index{},
		&VecElem{}, &VecLoad{}, &AssignExpr{}, &IncDec{}, &Call{}, &Cast{}, &AddrOf{}, &InitList{},
	}
}

// TestNodeListMatchesAST reads ast.go and fails when a type with a
// stmtNode method or an embedded exprBase is missing from allNodes, so
// the completeness test below cannot silently skip a new node type.
func TestNodeListMatchesAST(t *testing.T) {
	f, err := goparser.ParseFile(token.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.Name == "stmtNode" && d.Recv != nil {
				declared = append(declared, d.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name)
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				ts, ok := sp.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					if id, ok := fld.Type.(*ast.Ident); ok && len(fld.Names) == 0 && id.Name == "exprBase" {
						declared = append(declared, ts.Name.Name)
					}
				}
			}
		}
	}
	var listed []string
	for _, n := range allNodes() {
		listed = append(listed, reflect.TypeOf(n).Elem().Name())
	}
	sort.Strings(declared)
	sort.Strings(listed)
	if !reflect.DeepEqual(declared, listed) {
		t.Fatalf("ast.go declares node types\n  %v\nbut allNodes lists\n  %v", declared, listed)
	}
}

var (
	exprType  = reflect.TypeOf((*Expr)(nil)).Elem()
	stmtType  = reflect.TypeOf((*Stmt)(nil)).Elem()
	blockType = reflect.TypeOf((*BlockStmt)(nil))
	mapsType  = reflect.TypeOf([]MapClause(nil))
)

// holdsNodes reports whether a field of type t can reach an Expr or Stmt.
func holdsNodes(t reflect.Type) bool { return reaches(t, map[reflect.Type]bool{}) }

func reaches(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return false // a recursive type such as *Type
	}
	seen[t] = true
	switch {
	case t == exprType || t == stmtType:
		return true
	case t.Kind() == reflect.Interface:
		return false // Decl: a reference to a declaration, not a child
	case t.Implements(exprType) || t.Implements(stmtType):
		return true
	case t.Kind() == reflect.Slice || t.Kind() == reflect.Ptr || t.Kind() == reflect.Array:
		return reaches(t.Elem(), seen)
	case t.Kind() == reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if reaches(t.Field(i).Type, seen) {
				return true
			}
		}
	}
	return false
}

// TestInspectVisitsEveryChildField fills every Expr- or Stmt-typed field
// of every node type with distinct sentinel nodes and checks Inspect and
// EachChild reach each of them. A field kind the test does not know how
// to fill fails too, so a new way of holding children cannot go unvisited.
func TestInspectVisitsEveryChildField(t *testing.T) {
	for _, n := range allNodes() {
		v := reflect.ValueOf(n).Elem()
		name := v.Type().Name()
		var want []Node
		expr := func() reflect.Value {
			e := &Ident{Name: "sentinel"}
			want = append(want, e)
			return reflect.ValueOf(e)
		}
		for i := 0; i < v.NumField(); i++ {
			f, ft := v.Field(i), v.Type().Field(i).Type
			switch {
			case ft == exprType:
				f.Set(expr())
			case ft == stmtType:
				s := &BarrierStmt{}
				want = append(want, s)
				f.Set(reflect.ValueOf(s))
			case ft == reflect.SliceOf(exprType):
				f.Set(reflect.Append(f, expr(), expr()))
			case ft == reflect.SliceOf(stmtType):
				a, b := &BarrierStmt{}, &BarrierStmt{Pos: Pos{Line: 1}}
				want = append(want, a, b)
				f.Set(reflect.ValueOf([]Stmt{a, b}))
			case ft == blockType:
				b := &BlockStmt{}
				want = append(want, b)
				f.Set(reflect.ValueOf(b))
			case ft == mapsType:
				mc := MapClause{Name: "m"}
				mc.Low = expr().Interface().(Expr)
				mc.Len = expr().Interface().(Expr)
				f.Set(reflect.ValueOf([]MapClause{mc}))
			case holdsNodes(ft):
				t.Fatalf("%s.%s has type %s, which can hold nodes in a way this test (and so perhaps EachChild) does not know", name, v.Type().Field(i).Name, ft)
			}
		}
		seen := map[Node]bool{}
		Inspect(n, func(c Node) bool {
			seen[c] = true
			return true
		})
		if !seen[n] {
			t.Errorf("%s: Inspect did not visit the root", name)
		}
		direct := map[Node]bool{}
		EachChild(n, func(c Node) { direct[c] = true })
		for _, w := range want {
			if !seen[w] {
				t.Errorf("%s: Inspect skipped a child of type %T", name, w)
			}
			if !direct[w] {
				t.Errorf("%s: EachChild omitted a child of type %T", name, w)
			}
		}
		if len(direct) != len(want) {
			t.Errorf("%s: EachChild visited %d nodes, want %d", name, len(direct), len(want))
		}
	}
}

func TestInspectSkipsAbsentChildrenAndPrunes(t *testing.T) {
	var visited []Node
	count := func(n Node) int {
		visited = visited[:0]
		Inspect(n, func(c Node) bool { visited = append(visited, c); return true })
		return len(visited)
	}
	if got := count(nil); got != 0 {
		t.Errorf("nil root visited %d nodes", got)
	}
	if got := count((*BlockStmt)(nil)); got != 0 {
		t.Errorf("nil block visited %d nodes", got)
	}
	if got := count(Expr(nil)); got != 0 {
		t.Errorf("nil expression visited %d nodes", got)
	}
	// if without else, for without condition, return without value.
	tree := &BlockStmt{Stmts: []Stmt{
		&IfStmt{Cond: &IntLit{}, Then: &BlockStmt{}},
		&ForStmt{Body: &BlockStmt{}},
		&ReturnStmt{},
	}}
	if got := count(tree); got != 7 {
		t.Errorf("visited %d nodes, want 7: %v", got, visited)
	}
	n := 0
	Inspect(tree, func(c Node) bool {
		n++
		_, isIf := c.(*IfStmt)
		return !isIf
	})
	if n != 5 {
		t.Errorf("pruning the if visited %d nodes, want 5", n)
	}
}

// bindSrc exercises every scoping rule binding depends on; the comments
// give each declaration the tag the table below refers to.
const bindSrc = `void k(float *A, int n) {
	int x = n;
	{
		int x = x + 1;
		x = x + 2;
	}
	{
		int x = 3;
		x = x + 4;
	}
	for (int i = 0; i < n; i++) {
		int n = i;
		x = n;
	}
	int i = x;
	#pragma omp target parallel map(tofrom: A[0:n]) map(to: x) num_threads(2)
	{
		A[i] = x;
	}
}
`

func TestBinding(t *testing.T) {
	prog, err := Parse(bindSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Funcs[0]
	// Every use, as "name@line:col" -> "line:col of the declared name".
	got := map[string]string{}
	Inspect(fn.Body, func(n Node) bool {
		switch x := n.(type) {
		case *Ident:
			if x.Decl == nil {
				t.Errorf("%s at %s is unbound", x.Name, x.Pos)
				break
			}
			if x.Decl.DeclName() != x.Name || !x.Decl.DeclType().Equal(x.Type()) {
				t.Errorf("%s at %s bound to %s %s", x.Name, x.Pos, x.Decl.DeclType(), x.Decl.DeclName())
			}
			got[x.Name+"@"+x.Pos.String()] = x.Decl.DeclPos().String()
		case *TargetStmt:
			for _, mc := range x.Maps {
				if mc.Decl == nil {
					t.Errorf("map clause %s is unbound", mc.Name)
					continue
				}
				got["map "+mc.Name] = mc.Decl.DeclPos().String()
			}
		}
		return true
	})
	paramA, paramN := fn.Params[0].Pos.String(), fn.Params[1].Pos.String()
	want := map[string]string{
		"n@2:10": paramN, // outer x's initializer reads the parameter
		// Inner block: the initializer of the shadowing x still sees the
		// outer x; after the declaration both sides see the inner one.
		"x@4:11": "2:6", "x@5:3": "4:7", "x@5:7": "4:7",
		// Sibling block: same name, different declaration.
		"x@9:3": "8:7", "x@9:7": "8:7",
		// For-init scope covers condition, post and body...
		"i@11:18": "11:11", "n@11:22": paramN, "i@11:25": "11:11",
		"i@12:11": "11:11", "x@13:3": "2:6", "n@13:7": "12:7",
		// ...and ends at the loop: this i is a new function-level one,
		// and the shadowing n is gone too.
		"x@15:10": "2:6",
		"map A":   paramA, "map x": "2:6",
		"n@1:1":  paramN, // the section length; pragma payloads are lexed on their own
		"A@18:3": paramA, "i@18:5": "15:6", "x@18:10": "2:6",
	}
	if !reflect.DeepEqual(got, want) {
		for k, w := range want {
			if got[k] != w {
				t.Errorf("%s bound to declaration at %q, want %q", k, got[k], w)
			}
		}
		for k, g := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("unexpected use %s (bound to %s)", k, g)
			}
		}
	}
}

func TestAssigned(t *testing.T) {
	prog, err := Parse(`void k(float *A, int n) {
	int a = 0;
	int b = 0;
	int c = 0;
	float v = 0.0f;
	for (int i = 0; i < n; i++) {
		a = i;
		if (a > 2) { b += 1; }
		{ int c = 1; c++; }
		A[c] = v;
	}
}
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Funcs[0].Body
	loop := body.Stmts[4].(*ForStmt)
	var decls []Decl
	for _, p := range prog.Funcs[0].Params {
		decls = append(decls, p)
	}
	Inspect(body, func(n Node) bool {
		if d, ok := n.(*DeclStmt); ok {
			decls = append(decls, d)
		}
		return true
	})
	names := func(s DeclSet) []string {
		var out []string
		for _, d := range decls {
			if s.Has(d) {
				out = append(out, d.DeclName()+"@"+d.DeclPos().String())
			}
		}
		sort.Strings(out)
		return out
	}
	// The inner c is written, the outer one (4:6) only read; the element
	// store to A writes no scalar.
	if got, want := names(Assigned(loop.Body)), []string{"a@2:6", "b@3:6", "c@9:9"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Assigned(body) = %v, want %v", got, want)
	}
	// The repeating part adds the post clause's i but not the init's.
	if got, want := names(LoopAssigned(loop)), []string{"a@2:6", "b@3:6", "c@9:9", "i@6:11"}; !reflect.DeepEqual(got, want) {
		t.Errorf("LoopAssigned = %v, want %v", got, want)
	}
}

// TestAccesses lists, per assignment form, what Accesses reports in
// order: "r" or "w", the variable, the node type and, for a target, the
// statement that writes it. Every walk must allocate nothing.
func TestAccesses(t *testing.T) {
	for _, row := range []struct {
		stmt string
		want []string
	}{
		{"v = w", []string{"r w Ident", "w v Ident by AssignExpr"}},
		{"v += w", []string{"r w Ident", "r v Ident by AssignExpr", "w v Ident by AssignExpr"}},
		{"++i", []string{"r i Ident by IncDec", "w i Ident by IncDec"}},
		{"A[i] = w", []string{"r w Ident", "r i Ident", "w A Index by AssignExpr"}},
		{"A[i] += w", []string{"r w Ident", "r i Ident", "r A Index by AssignExpr", "w A Index by AssignExpr"}},
		{"*((VECTOR*)&A[i]) = u", []string{"r u Ident", "r i Ident", "w A VecLoad by AssignExpr"}},
		{"u[l] = w", []string{"r w Ident", "r l Ident", "w u VecElem by AssignExpr"}},
		{"B[i][l] = w", []string{"r w Ident", "r i Ident", "r l Ident", "w B VecElem by AssignExpr"}},
		{"B[i][l]++", []string{"r i Ident", "r l Ident", "r B VecElem by IncDec", "w B VecElem by IncDec"}},
		{"v = A[i]", []string{"r i Ident", "r A Index", "w v Ident by AssignExpr"}},
		{"u = *((VECTOR*)&A[i])", []string{"r i Ident", "r A VecLoad", "w u Ident by AssignExpr"}},
		{"v = u[l]", []string{"r u Ident", "r l Ident", "w v Ident by AssignExpr"}},
		{"v = B[i][l]", []string{"r i Ident", "r B Index", "r l Ident", "w v Ident by AssignExpr"}},
	} {
		prog, err := Parse("void k(float *A, int i, int l, float w) {\n"+
			"float v = 0.0f; VECTOR u = {0.0f}; VECTOR B[4];\n"+row.stmt+";\n}\n", Options{})
		if err != nil {
			t.Fatalf("%s: %v", row.stmt, err)
		}
		e := prog.Funcs[0].Body.Stmts[3].(*ExprStmt).X
		var got []string
		Accesses(e, func(a Access) {
			s := "r "
			if a.Write {
				s = "w "
			}
			s += a.Decl.DeclName() + " " + reflect.TypeOf(a.Node).Elem().Name()
			if a.By != nil {
				if a.By != e {
					t.Errorf("%s: access by %T, not the statement", row.stmt, a.By)
				}
				s += " by " + reflect.TypeOf(a.By).Elem().Name()
			}
			got = append(got, s)
		})
		if !reflect.DeepEqual(got, row.want) {
			t.Errorf("%s: Accesses =\n  %q\nwant\n  %q", row.stmt, got, row.want)
		}
		n := 0
		count := func(Access) { n++ }
		if allocs := testing.AllocsPerRun(10, func() { Accesses(e, count) }); allocs != 0 {
			t.Errorf("%s: Accesses allocates %.0f objects, want 0", row.stmt, allocs)
		}
	}
}

// TestCountedAllocatesNothing: recognising a counted loop, including the
// walk that checks nothing else in it assigns the induction variable,
// builds no assigned set and leaves the result on the caller's stack.
func TestCountedAllocatesNothing(t *testing.T) {
	prog, err := Parse(`void k(float *A, int n) {
	int s = 0;
	for (int i = 0; i < n; i += 2) {
		s = s + i;
		if (s > 4) { A[i] = A[i + 1] * 2.0f; }
	}
}
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Funcs[0].Body.Stmts[1].(*ForStmt)
	counted := true
	got := testing.AllocsPerRun(10, func() { counted = counted && Counted(loop) != nil })
	if !counted {
		t.Fatal("the loop is not counted")
	}
	if got != 0 {
		t.Errorf("Counted allocates %.0f objects, want 0", got)
	}
}

func TestLoopName(t *testing.T) {
	st := &ForStmt{Pos: Pos{Line: 12, Col: 5}}
	if got := LoopName(st); got != "for@12:5" {
		t.Fatalf("LoopName = %q", got)
	}
	if pos, ok := ParseLoopName("for@12:5"); !ok || pos != st.Pos {
		t.Fatalf("ParseLoopName round trip = %v, %v", pos, ok)
	}
	for _, bad := range []string{"", "for@", "for@12", "for@a:b", "loop@1:2", "12:5"} {
		if pos, ok := ParseLoopName(bad); ok || pos != (Pos{}) {
			t.Errorf("ParseLoopName(%q) = %v, %v; want zero, false", bad, pos, ok)
		}
	}
}
