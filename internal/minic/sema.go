package minic

import "fmt"

// SemaError describes a semantic error with its source position.
type SemaError struct {
	Pos Pos
	Msg string
}

func (e *SemaError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Builtins callable from MiniC. Both come from the OpenMP runtime and are
// evaluated per hardware thread by the accelerator.
var builtinFuncs = map[string]*Type{
	"omp_get_thread_num":  TypeInt(),
	"omp_get_num_threads": TypeInt(),
}

// analyze type-checks the program in place, resolves identifier types,
// rewrites vector lane accesses, inserts implicit int<->float conversions,
// and enforces the structural constraints of the offload model (one target
// region; critical/barrier only inside it). It numbers each function's
// declarations (Decl.DeclID) and loops (ForStmt.ID), and carves the nodes
// it adds (conversions, lane accesses) from the parse's arena.
func analyze(prog *Program, lanes int, ar *arena) error {
	a := &analyzer{lanes: lanes, ar: ar}
	for _, f := range prog.Funcs {
		if err := a.checkFunc(f); err != nil {
			return err
		}
	}
	return nil
}

// scope is the one implementation of C block scoping: every identifier
// and map clause leaves analysis pointing at the declaration found here.
// It is a stack of the declarations in view, innermost last; marks holds
// where each open scope's own declarations start.
type scope struct {
	decls []Decl
	marks []int
}

func (s *scope) open() { s.marks = append(s.marks, len(s.decls)) }

func (s *scope) close() {
	m := s.marks[len(s.marks)-1]
	s.marks = s.marks[:len(s.marks)-1]
	clear(s.decls[m:])
	s.decls = s.decls[:m]
}

func (s *scope) lookup(name string) Decl {
	for i := len(s.decls) - 1; i >= 0; i-- {
		if s.decls[i].DeclName() == name {
			return s.decls[i]
		}
	}
	return nil
}

func (s *scope) declare(d Decl) bool {
	for _, o := range s.decls[s.marks[len(s.marks)-1]:] {
		if o.DeclName() == d.DeclName() {
			return false
		}
	}
	s.decls = append(s.decls, d)
	return true
}

type analyzer struct {
	lanes     int
	ar        *arena
	scope     scope
	fn        *FuncDecl
	inTarget  bool
	sawTarget bool
}

func (a *analyzer) errf(p Pos, format string, args ...any) error {
	return &SemaError{Pos: p, Msg: fmt.Sprintf(format, args...)}
}

func (a *analyzer) checkFunc(f *FuncDecl) error {
	a.fn = f
	f.NumDecls, f.NumLoops = 0, 0
	sc := &a.scope
	sc.decls, sc.marks = a.ar.declBuf[:0], a.ar.markBuf[:0]
	sc.open()
	for _, prm := range f.Params {
		if prm.Type.Basic == Void && !prm.Type.Ptr {
			return a.errf(prm.Pos, "parameter %s has void type", prm.Name)
		}
		if !sc.declare(prm) {
			return a.errf(prm.Pos, "duplicate parameter %s", prm.Name)
		}
		f.NumDecls++
		prm.id = f.NumDecls
	}
	return a.checkBlock(f.Body, sc)
}

func (a *analyzer) checkBlock(b *BlockStmt, sc *scope) error {
	sc.open()
	for _, s := range b.Stmts {
		if err := a.checkStmt(s, sc); err != nil {
			return err
		}
	}
	sc.close()
	return nil
}

func (a *analyzer) checkStmt(s Stmt, sc *scope) error {
	switch st := s.(type) {
	case *BlockStmt:
		return a.checkBlock(st, sc)
	case *DeclStmt:
		return a.checkDecl(st, sc)
	case *ExprStmt:
		x, err := a.checkExpr(st.X, sc)
		if err != nil {
			return err
		}
		switch x.(type) {
		case *AssignExpr, *IncDec, *Call:
		default:
			return a.errf(st.Pos, "expression statement has no effect")
		}
		st.X = x
		return nil
	case *ForStmt:
		a.fn.NumLoops++
		st.id = a.fn.NumLoops
		sc.open()
		for _, is := range st.Init {
			if err := a.checkStmt(is, sc); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			c, err := a.checkExpr(st.Cond, sc)
			if err != nil {
				return err
			}
			if !c.Type().IsScalar() {
				return a.errf(st.Pos, "for condition must be scalar, got %s", c.Type())
			}
			st.Cond = c
		}
		for _, ps := range st.Post {
			if err := a.checkStmt(ps, sc); err != nil {
				return err
			}
		}
		if err := a.checkBlock(st.Body, sc); err != nil {
			return err
		}
		sc.close()
		return nil
	case *IfStmt:
		c, err := a.checkExpr(st.Cond, sc)
		if err != nil {
			return err
		}
		if !c.Type().IsScalar() {
			return a.errf(st.Pos, "if condition must be scalar, got %s", c.Type())
		}
		st.Cond = c
		if err := a.checkBlock(st.Then, sc); err != nil {
			return err
		}
		if st.Else != nil {
			return a.checkBlock(st.Else, sc)
		}
		return nil
	case *ReturnStmt:
		if a.inTarget {
			return a.errf(st.Pos, "return is not allowed inside a target region")
		}
		if st.X != nil {
			x, err := a.checkExpr(st.X, sc)
			if err != nil {
				return err
			}
			if a.fn.Ret.Basic == Void && !a.fn.Ret.Ptr {
				return a.errf(st.Pos, "void function returns a value")
			}
			st.X = a.convertTo(x, a.fn.Ret)
		}
		return nil
	case *CriticalStmt:
		if !a.inTarget {
			return a.errf(st.Pos, "omp critical outside a target region")
		}
		return a.checkBlock(st.Body, sc)
	case *BarrierStmt:
		if !a.inTarget {
			return a.errf(st.Pos, "omp barrier outside a target region")
		}
		return nil
	case *TargetStmt:
		if a.inTarget {
			return a.errf(st.Pos, "nested target regions are not supported")
		}
		if a.sawTarget {
			return a.errf(st.Pos, "only one target region per application is supported (as in Nymble)")
		}
		a.sawTarget = true
		for i := range st.Maps {
			if err := a.checkMap(&st.Maps[i], sc); err != nil {
				return err
			}
		}
		a.inTarget = true
		err := a.checkBlock(st.Body, sc)
		a.inTarget = false
		return err
	}
	return a.errf(StmtPos(s), "unhandled statement %T", s)
}

func (a *analyzer) checkDecl(st *DeclStmt, sc *scope) error {
	if st.Typ.Basic == Void && !st.Typ.Ptr && len(st.Typ.Dims) == 0 {
		return a.errf(st.Pos, "variable %s has void type", st.Name)
	}
	if st.Init != nil {
		if il, ok := st.Init.(*InitList); ok {
			if !st.Typ.IsVector() {
				return a.errf(st.Pos, "brace initializer is only supported for VECTOR variables")
			}
			if len(il.Elems) != 1 && len(il.Elems) != st.Typ.Lanes {
				return a.errf(st.Pos, "vector initializer must have 1 or %d elements", st.Typ.Lanes)
			}
			for i, e := range il.Elems {
				x, err := a.checkExpr(e, sc)
				if err != nil {
					return err
				}
				il.Elems[i] = a.convertTo(x, TypeFloat())
			}
			il.SetType(st.Typ)
		} else {
			x, err := a.checkExpr(st.Init, sc)
			if err != nil {
				return err
			}
			if st.Typ.IsArray() {
				return a.errf(st.Pos, "array %s cannot have a scalar initializer", st.Name)
			}
			st.Init = a.convertTo(x, st.Typ)
		}
	}
	if !sc.declare(st) {
		return a.errf(st.Pos, "redeclaration of %s in the same scope", st.Name)
	}
	a.fn.NumDecls++
	st.id = a.fn.NumDecls
	return nil
}

func (a *analyzer) checkMap(mc *MapClause, sc *scope) error {
	mc.Decl = sc.lookup(mc.Name)
	if mc.Decl == nil {
		return a.errf(mc.Pos, "map clause references unknown variable %s", mc.Name)
	}
	t := mc.Decl.DeclType()
	if mc.Low != nil {
		low, err := a.checkExpr(mc.Low, sc)
		if err != nil {
			return err
		}
		length, err := a.checkExpr(mc.Len, sc)
		if err != nil {
			return err
		}
		if !t.IsPointer() {
			return a.errf(mc.Pos, "array section on non-pointer %s", mc.Name)
		}
		mc.Low = a.convertTo(low, TypeInt())
		mc.Len = a.convertTo(length, TypeInt())
	} else if t.IsPointer() {
		return a.errf(mc.Pos, "pointer %s must be mapped with an array section [low:len]", mc.Name)
	}
	return nil
}

// convertTo wraps x in a Cast if its type differs from want (int<->float
// conversions only; identical types pass through).
func (a *analyzer) convertTo(x Expr, want *Type) Expr {
	have := x.Type()
	if have.Equal(want) {
		return x
	}
	if have.IsScalar() && want.IsScalar() {
		c := a.ar.casts.New(Cast{To: want, X: x, Pos: ExprPos(x)})
		c.SetType(want)
		return c
	}
	return x // mismatch reported by caller via typeCompatible checks
}

func (a *analyzer) checkExpr(e Expr, sc *scope) (Expr, error) {
	switch x := e.(type) {
	case *IntLit:
		x.SetType(TypeInt())
		return x, nil
	case *FloatLit:
		x.SetType(TypeFloat())
		return x, nil
	case *Ident:
		x.Decl = sc.lookup(x.Name)
		if x.Decl == nil {
			return nil, a.errf(x.Pos, "undeclared identifier %s", x.Name)
		}
		x.SetType(x.Decl.DeclType())
		return x, nil
	case *Unary:
		inner, err := a.checkExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		if !inner.Type().IsNumeric() {
			return nil, a.errf(x.Pos, "unary operator on non-numeric type %s", inner.Type())
		}
		x.X = inner
		if x.Neg {
			x.SetType(inner.Type())
		} else {
			x.SetType(TypeInt())
		}
		return x, nil
	case *Binary:
		return a.checkBinary(x, sc)
	case *Cond:
		c, err := a.checkExpr(x.C, sc)
		if err != nil {
			return nil, err
		}
		av, err := a.checkExpr(x.A, sc)
		if err != nil {
			return nil, err
		}
		bv, err := a.checkExpr(x.B, sc)
		if err != nil {
			return nil, err
		}
		if !c.Type().IsScalar() {
			return nil, a.errf(x.Pos, "ternary condition must be scalar")
		}
		rt, err := a.commonType(av.Type(), bv.Type(), x.Pos)
		if err != nil {
			return nil, err
		}
		x.C, x.A, x.B = c, a.convertTo(av, rt), a.convertTo(bv, rt)
		x.SetType(rt)
		return x, nil
	case *Index:
		return a.checkIndex(x, sc)
	case *VecLoad:
		base, err := a.checkExpr(x.Base, sc)
		if err != nil {
			return nil, err
		}
		bt := base.Type()
		if !(bt.IsPointer() && bt.Elem.IsScalar() && bt.Elem.Basic == Float) {
			return nil, a.errf(x.Pos, "vector load base must be float*, got %s", bt)
		}
		idx, err := a.checkExpr(x.Idx, sc)
		if err != nil {
			return nil, err
		}
		x.Base, x.Idx = base, a.convertTo(idx, TypeInt())
		x.SetType(a.ar.vector(a.lanes))
		return x, nil
	case *AssignExpr:
		return a.checkAssign(x, sc)
	case *IncDec:
		inner, err := a.checkExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		if !isLValue(inner) || !inner.Type().IsScalar() {
			return nil, a.errf(x.Pos, "++/-- requires a scalar lvalue")
		}
		x.X = inner
		x.SetType(inner.Type())
		return x, nil
	case *Call:
		rt, ok := builtinFuncs[x.Name]
		if !ok {
			return nil, a.errf(x.Pos, "call to unknown function %s (only OpenMP runtime builtins are supported)", x.Name)
		}
		if len(x.Args) != 0 {
			return nil, a.errf(x.Pos, "%s takes no arguments", x.Name)
		}
		if !a.inTarget {
			return nil, a.errf(x.Pos, "%s may only be called inside a target region", x.Name)
		}
		x.SetType(rt)
		return x, nil
	case *Cast:
		if !x.To.IsScalar() {
			return nil, a.errf(x.Pos, "unsupported cast to %s", x.To)
		}
		inner, err := a.checkExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		if !inner.Type().IsScalar() {
			return nil, a.errf(x.Pos, "cast of non-scalar type %s", inner.Type())
		}
		x.X = inner
		x.SetType(x.To)
		return x, nil
	case *AddrOf:
		return nil, a.errf(x.Pos, "& is only supported inside *((VECTOR*)&a[i])")
	case *InitList:
		return nil, a.errf(x.Pos, "brace initializer is only allowed in a declaration")
	}
	return nil, a.errf(ExprPos(e), "unhandled expression %T", e)
}

func (a *analyzer) checkBinary(x *Binary, sc *scope) (Expr, error) {
	l, err := a.checkExpr(x.L, sc)
	if err != nil {
		return nil, err
	}
	r, err := a.checkExpr(x.R, sc)
	if err != nil {
		return nil, err
	}
	lt, rt := l.Type(), r.Type()
	switch {
	case x.Op.IsLogical():
		if !lt.IsScalar() || !rt.IsScalar() {
			return nil, a.errf(x.Pos, "logical operator requires scalar operands")
		}
		x.L, x.R = l, r
		x.SetType(TypeInt())
		return x, nil
	case x.Op.IsComparison():
		ct, err := a.commonType(lt, rt, x.Pos)
		if err != nil {
			return nil, err
		}
		if !ct.IsScalar() {
			return nil, a.errf(x.Pos, "comparison of non-scalar type %s", ct)
		}
		x.L, x.R = a.convertTo(l, ct), a.convertTo(r, ct)
		x.SetType(TypeInt())
		return x, nil
	default:
		ct, err := a.commonType(lt, rt, x.Pos)
		if err != nil {
			return nil, err
		}
		if x.Op == OpRem && ct.Basic != Int {
			return nil, a.errf(x.Pos, "%% requires integer operands")
		}
		x.L, x.R = a.convertTo(l, ct), a.convertTo(r, ct)
		x.SetType(ct)
		return x, nil
	}
}

// commonType computes the usual arithmetic conversion result of two types.
// Vectors combine with scalars by broadcasting the scalar.
func (a *analyzer) commonType(l, r *Type, p Pos) (*Type, error) {
	switch {
	case l.IsVector() && r.IsVector():
		if l.Lanes != r.Lanes {
			return nil, a.errf(p, "vector lane mismatch: %s vs %s", l, r)
		}
		return l, nil
	case l.IsVector() && r.IsScalar():
		return l, nil
	case r.IsVector() && l.IsScalar():
		return r, nil
	case l.IsScalar() && r.IsScalar():
		if l.Basic == Float || r.Basic == Float {
			return TypeFloat(), nil
		}
		return TypeInt(), nil
	}
	return nil, a.errf(p, "invalid operands: %s and %s", l, r)
}

// checkIndex types a subscript chain. Subscripts first peel array
// dimensions or a pointer, and a final extra subscript on a vector value
// becomes a VecElem lane access. The first subscript that peels a base
// which is not itself an Index reuses x, whose list it refills in place:
// each write lands on a subscript already read. bt is cur's type less
// the peeled dimensions, so the array type of a partial subscript is
// built once, at the end, and a full one builds none.
func (a *analyzer) checkIndex(x *Index, sc *scope) (Expr, error) {
	base, err := a.checkExpr(x.Base, sc)
	if err != nil {
		return nil, err
	}
	var cur Expr = base
	bt, peeled := base.Type(), 0
	for _, rawIdx := range x.Idx {
		ie, err := a.checkExpr(rawIdx, sc)
		if err != nil {
			return nil, err
		}
		ie = a.convertTo(ie, TypeInt())
		switch {
		case bt.IsPointer() || bt.IsArray():
			if ix, ok := cur.(*Index); ok {
				// Extend existing index node with one more subscript.
				ix.Idx = append(ix.Idx, ie)
			} else {
				x.Base, x.Idx = cur, append(x.Idx[:0], ie)
				cur = x
			}
			if peeled++; bt.IsArray() && peeled < len(bt.Dims) {
				continue
			}
			bt, peeled = bt.Elem, 0
			cur.SetType(bt)
		case bt.IsVector():
			ve := a.ar.vecElems.New(VecElem{Vec: cur, Idx: ie, Pos: x.Pos})
			ve.SetType(TypeFloat())
			cur, bt = ve, ve.Type()
		default:
			return nil, a.errf(x.Pos, "cannot subscript value of type %s", bt)
		}
	}
	if peeled > 0 {
		cur.SetType(&Type{Dims: bt.Dims[peeled:], Elem: bt.Elem})
	}
	return cur, nil
}

func isLValue(e Expr) bool {
	switch v := e.(type) {
	case *Ident:
		return v.Type().IsScalar() || v.Type().IsVector()
	case *Index:
		t := v.Type()
		return t.IsScalar() || t.IsVector()
	case *VecElem, *VecLoad:
		return true
	}
	return false
}

func (a *analyzer) checkAssign(x *AssignExpr, sc *scope) (Expr, error) {
	lhs, err := a.checkExpr(x.LHS, sc)
	if err != nil {
		return nil, err
	}
	if !isLValue(lhs) {
		return nil, a.errf(x.Pos, "assignment target is not an lvalue")
	}
	rhs, err := a.checkExpr(x.RHS, sc)
	if err != nil {
		return nil, err
	}
	lt := lhs.Type()
	if lt.IsVector() {
		rt := rhs.Type()
		if !(rt.IsVector() && rt.Lanes == lt.Lanes) && !rt.IsScalar() {
			return nil, a.errf(x.Pos, "cannot assign %s to vector", rt)
		}
	} else {
		rhs = a.convertTo(rhs, lt)
		if !rhs.Type().Equal(lt) {
			return nil, a.errf(x.Pos, "cannot assign %s to %s", rhs.Type(), lt)
		}
	}
	x.LHS, x.RHS = lhs, rhs
	x.SetType(lt)
	return x, nil
}

// FindTarget locates the unique target region in the program and the
// function containing it. It returns an error if none exists.
func FindTarget(prog *Program) (*FuncDecl, *TargetStmt, error) {
	for _, f := range prog.Funcs {
		if ts := TargetOf(f); ts != nil {
			return f, ts, nil
		}
	}
	return nil, nil, fmt.Errorf("no #pragma omp target parallel region found")
}

// TargetOf returns the function's target region, or nil. Sema guarantees
// at most one per program.
func TargetOf(f *FuncDecl) *TargetStmt {
	var found *TargetStmt
	Inspect(f.Body, func(n Node) bool {
		if ts, ok := n.(*TargetStmt); ok {
			found = ts
		}
		return found == nil
	})
	return found
}
