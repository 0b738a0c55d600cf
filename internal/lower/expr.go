package lower

import (
	"paravis/internal/ir"
	"paravis/internal/minic"
)

// lowerExpr lowers an expression to an IR node producing its value.
func (lw *lowerer) lowerExpr(g *gctx, e minic.Expr) (*ir.Node, error) {
	switch x := e.(type) {
	case *minic.IntLit:
		return g.b.ConstInt(x.Value), nil
	case *minic.FloatLit:
		return g.b.ConstFloat(x.Value), nil
	case *minic.Ident:
		return lw.lowerIdentRead(g, x)
	case *minic.Unary:
		inner, err := lw.lowerExpr(g, x.X)
		if err != nil {
			return nil, err
		}
		if x.Neg {
			var zero *ir.Node
			switch inner.Kind {
			case ir.KindFloat:
				zero = g.b.ConstFloat(0)
			case ir.KindVec:
				zero = g.b.Splat(g.b.ConstFloat(0), inner.Lanes)
			default:
				zero = g.b.ConstInt(0)
			}
			return g.b.Bin(ir.OpSub, zero, inner), nil
		}
		return g.b.Not(inner), nil
	case *minic.Binary:
		return lw.lowerBinary(g, x)
	case *minic.Cond:
		c, err := lw.lowerExpr(g, x.C)
		if err != nil {
			return nil, err
		}
		a, err := lw.lowerExpr(g, x.A)
		if err != nil {
			return nil, err
		}
		b, err := lw.lowerExpr(g, x.B)
		if err != nil {
			return nil, err
		}
		a, b = lw.unifyVec(g, a, b)
		return g.b.Select(c, a, b), nil
	case *minic.Cast:
		inner, err := lw.lowerExpr(g, x.X)
		if err != nil {
			return nil, err
		}
		want, _ := irKind(x.To)
		switch {
		case want == inner.Kind:
			return inner, nil
		case want == ir.KindFloat && inner.Kind == ir.KindInt:
			return g.b.IntToFloat(inner), nil
		case want == ir.KindInt && inner.Kind == ir.KindFloat:
			return g.b.FloatToInt(inner), nil
		}
		return nil, lw.errf(x.Pos, "unsupported cast from %s", inner.Kind)
	case *minic.Index:
		return lw.lowerIndexRead(g, x)
	case *minic.VecElem:
		vec, err := lw.lowerExpr(g, x.Vec)
		if err != nil {
			return nil, err
		}
		idx, err := lw.lowerExpr(g, x.Idx)
		if err != nil {
			return nil, err
		}
		return g.b.Extract(vec, idx), nil
	case *minic.VecLoad:
		return lw.lowerVecLoad(g, x)
	case *minic.AssignExpr:
		return lw.lowerAssign(g, x)
	case *minic.IncDec:
		one := &minic.IntLit{Value: 1}
		one.SetType(minic.TypeInt())
		op := minic.OpAdd
		if !x.Inc {
			op = minic.OpSub
		}
		as := &minic.AssignExpr{LHS: x.X, Op: &op, RHS: one, Pos: x.Pos}
		as.SetType(x.X.Type())
		return lw.lowerAssign(g, as)
	case *minic.Call:
		switch x.Name {
		case "omp_get_thread_num":
			return g.b.ThreadID(), nil
		case "omp_get_num_threads":
			return g.b.NumThreads(), nil
		}
		return nil, lw.errf(x.Pos, "unsupported call %s", x.Name)
	case *minic.InitList:
		lanes := x.Type().Lanes
		if len(x.Elems) == 1 {
			el, err := lw.lowerExpr(g, x.Elems[0])
			if err != nil {
				return nil, err
			}
			return g.b.Splat(el, lanes), nil
		}
		var vec *ir.Node
		for i, el := range x.Elems {
			ev, err := lw.lowerExpr(g, el)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				vec = g.b.Splat(ev, lanes)
			} else {
				vec = g.b.Insert(vec, g.b.ConstInt(int64(i)), ev)
			}
		}
		return vec, nil
	}
	return nil, lw.errf(minic.ExprPos(e), "unhandled expression %T", e)
}

// lowerIdentRead reads a variable according to its storage class.
func (lw *lowerer) lowerIdentRead(g *gctx, x *minic.Ident) (*ir.Node, error) {
	sl := lw.slots[x.Decl]
	if sl == nil {
		return nil, lw.errf(x.Pos, "internal: unresolved identifier %s", x.Name)
	}
	switch sl.st {
	case stSSA:
		return g.read(sl)
	case stScalarParam:
		kind, _ := irKind(sl.typ)
		return g.b.Param(sl.name, kind), nil
	case stScalarGlobal:
		kind, _ := irKind(sl.typ)
		n := g.b.Load(sl.arr, g.b.ConstInt(0), kind, 0, 1)
		n.Pred = g.pred
		lw.attachMem(g, n, false)
		return n, nil
	case stGlobalArr, stLocalArr:
		return nil, lw.errf(x.Pos, "array %s used as a value", x.Name)
	}
	return nil, lw.errf(x.Pos, "internal: bad storage for %s", x.Name)
}

// unifyVec broadcasts a scalar operand when the other side is a vector and
// converts int scalars entering float/vector arithmetic.
func (lw *lowerer) unifyVec(g *gctx, a, b *ir.Node) (*ir.Node, *ir.Node) {
	promote := func(s *ir.Node, lanes int) *ir.Node {
		if s.Kind == ir.KindInt {
			s = g.b.IntToFloat(s)
		}
		return g.b.Splat(s, lanes)
	}
	switch {
	case a.Kind == ir.KindVec && b.Kind != ir.KindVec:
		return a, promote(b, a.Lanes)
	case b.Kind == ir.KindVec && a.Kind != ir.KindVec:
		return promote(a, b.Lanes), b
	case a.Kind == ir.KindFloat && b.Kind == ir.KindInt:
		return a, g.b.IntToFloat(b)
	case a.Kind == ir.KindInt && b.Kind == ir.KindFloat:
		return g.b.IntToFloat(a), b
	}
	return a, b
}

func binOpToIR(op minic.BinOp) (ir.Op, bool) {
	switch op {
	case minic.OpAdd:
		return ir.OpAdd, true
	case minic.OpSub:
		return ir.OpSub, true
	case minic.OpMul:
		return ir.OpMul, true
	case minic.OpDiv:
		return ir.OpDiv, true
	case minic.OpRem:
		return ir.OpRem, true
	case minic.OpLt:
		return ir.OpLt, true
	case minic.OpLe:
		return ir.OpLe, true
	case minic.OpGt:
		return ir.OpGt, true
	case minic.OpGe:
		return ir.OpGe, true
	case minic.OpEq:
		return ir.OpEq, true
	case minic.OpNe:
		return ir.OpNe, true
	case minic.OpLAnd:
		return ir.OpAnd, true
	case minic.OpLOr:
		return ir.OpOr, true
	}
	return 0, false
}

func (lw *lowerer) lowerBinary(g *gctx, x *minic.Binary) (*ir.Node, error) {
	l, err := lw.lowerExpr(g, x.L)
	if err != nil {
		return nil, err
	}
	r, err := lw.lowerExpr(g, x.R)
	if err != nil {
		return nil, err
	}
	op, ok := binOpToIR(x.Op)
	if !ok {
		return nil, lw.errf(x.Pos, "unsupported binary operator %s", x.Op)
	}
	l, r = lw.unifyVec(g, l, r)
	return g.b.Bin(op, l, r), nil
}

// resolveArrayAccess resolves the base and linearized element index of an
// Index expression on a global or local array.
func (lw *lowerer) resolveArrayAccess(g *gctx, x *minic.Index) (*slot, *ir.Node, error) {
	id, ok := x.Base.(*minic.Ident)
	if !ok {
		return nil, nil, lw.errf(x.Pos, "array base must be a variable")
	}
	sl := lw.slots[id.Decl]
	if sl == nil {
		return nil, nil, lw.errf(x.Pos, "internal: unresolved array %s", id.Name)
	}
	switch sl.st {
	case stGlobalArr:
		if len(x.Idx) != 1 {
			return nil, nil, lw.errf(x.Pos, "global arrays use a single flat subscript")
		}
		idx, err := lw.lowerExpr(g, x.Idx[0])
		if err != nil {
			return nil, nil, err
		}
		return sl, idx, nil
	case stLocalArr:
		dims := sl.typ.Dims
		if len(x.Idx) != len(dims) {
			return nil, nil, lw.errf(x.Pos, "array %s needs %d subscripts, got %d", id.Name, len(dims), len(x.Idx))
		}
		var lin *ir.Node
		for i, ie := range x.Idx {
			iv, err := lw.lowerExpr(g, ie)
			if err != nil {
				return nil, nil, err
			}
			if lin == nil {
				lin = iv
			} else {
				lin = g.b.Bin(ir.OpAdd, g.b.Bin(ir.OpMul, lin, g.b.ConstInt(int64(dims[i]))), iv)
			}
		}
		return sl, lin, nil
	}
	return nil, nil, lw.errf(x.Pos, "%s is not an array", id.Name)
}

// lowerIndexRead loads one element of a global or local array.
func (lw *lowerer) lowerIndexRead(g *gctx, x *minic.Index) (*ir.Node, error) {
	sl, idx, err := lw.resolveArrayAccess(g, x)
	if err != nil {
		return nil, err
	}
	kind, lanes := irKind(x.Type())
	n := g.b.Load(sl.arr, idx, kind, lanes, 1)
	n.Pred = g.pred
	lw.attachMem(g, n, false)
	return n, nil
}

// lowerVecLoad loads VECTOR_LEN consecutive scalars from a global array.
func (lw *lowerer) lowerVecLoad(g *gctx, x *minic.VecLoad) (*ir.Node, error) {
	id, ok := x.Base.(*minic.Ident)
	if !ok {
		return nil, lw.errf(x.Pos, "vector load base must be a variable")
	}
	sl := lw.slots[id.Decl]
	if sl == nil || sl.st != stGlobalArr {
		return nil, lw.errf(x.Pos, "vector load base %s must be a mapped global array", id.Name)
	}
	idx, err := lw.lowerExpr(g, x.Idx)
	if err != nil {
		return nil, err
	}
	lanes := x.Type().Lanes
	n := g.b.Load(sl.arr, idx, ir.KindVec, lanes, lanes)
	n.Pred = g.pred
	lw.attachMem(g, n, false)
	return n, nil
}

// lowerAssign handles all assignment forms, compound or plain, to every
// lvalue shape: SSA variables, vector lanes, array elements, vector stores
// and mapped scalars.
func (lw *lowerer) lowerAssign(g *gctx, x *minic.AssignExpr) (*ir.Node, error) {
	// Compute the RHS value, folding in the old value for compound ops.
	rhsOf := func(old *ir.Node) (*ir.Node, error) {
		rhs, err := lw.lowerExpr(g, x.RHS)
		if err != nil {
			return nil, err
		}
		if x.Op != nil {
			op, ok := binOpToIR(*x.Op)
			if !ok {
				return nil, lw.errf(x.Pos, "unsupported compound operator")
			}
			o, r := lw.unifyVec(g, old, rhs)
			return g.b.Bin(op, o, r), nil
		}
		// Plain assignment: coerce shape to LHS.
		if old != nil {
			switch {
			case old.Kind == ir.KindVec && rhs.Kind != ir.KindVec:
				if rhs.Kind == ir.KindInt {
					rhs = g.b.IntToFloat(rhs)
				}
				rhs = g.b.Splat(rhs, old.Lanes)
			case old.Kind == ir.KindFloat && rhs.Kind == ir.KindInt:
				rhs = g.b.IntToFloat(rhs)
			case old.Kind == ir.KindInt && rhs.Kind == ir.KindFloat:
				rhs = g.b.FloatToInt(rhs)
			}
		}
		return rhs, nil
	}

	switch lhs := x.LHS.(type) {
	case *minic.Ident:
		sl := lw.slots[lhs.Decl]
		if sl == nil {
			return nil, lw.errf(x.Pos, "internal: unresolved %s", lhs.Name)
		}
		switch sl.st {
		case stSSA:
			// Read the old value even for plain assignments: rhsOf uses
			// its kind to coerce the RHS shape (scalar->vector etc.).
			old, err := g.read(sl)
			if err != nil {
				return nil, err
			}
			val, err := rhsOf(old)
			if err != nil {
				return nil, err
			}
			g.write(sl, val)
			return val, nil
		case stScalarGlobal:
			kind, _ := irKind(sl.typ)
			var old *ir.Node
			if x.Op != nil {
				old = g.b.Load(sl.arr, g.b.ConstInt(0), kind, 0, 1)
				old.Pred = g.pred
				lw.attachMem(g, old, false)
			}
			val, err := rhsOf(old)
			if err != nil {
				return nil, err
			}
			st := g.b.Store(sl.arr, g.b.ConstInt(0), val, 1)
			st.Pred = g.pred
			lw.attachMem(g, st, true)
			return val, nil
		case stScalarParam:
			return nil, lw.errf(x.Pos, "cannot assign to firstprivate scalar %s (map it tofrom)", lhs.Name)
		default:
			return nil, lw.errf(x.Pos, "cannot assign to array %s", lhs.Name)
		}

	case *minic.Index:
		sl, idx, err := lw.resolveArrayAccess(g, lhs)
		if err != nil {
			return nil, err
		}
		kind, lanes := irKind(lhs.Type())
		var old *ir.Node
		if x.Op != nil {
			old = g.b.Load(sl.arr, idx, kind, lanes, 1)
			old.Pred = g.pred
			lw.attachMem(g, old, false)
		}
		val, err := rhsOf(old)
		if err != nil {
			return nil, err
		}
		if kind == ir.KindVec && val.Kind != ir.KindVec {
			if val.Kind == ir.KindInt {
				val = g.b.IntToFloat(val)
			}
			val = g.b.Splat(val, lanes)
		}
		st := g.b.Store(sl.arr, idx, val, 1)
		st.Pred = g.pred
		lw.attachMem(g, st, true)
		return val, nil

	case *minic.VecElem:
		// sum[i] op= v  =>  sum = insert(sum, i, extract(sum,i) op v)
		vecIdent, ok := lhs.Vec.(*minic.Ident)
		if ok {
			sl := lw.slots[vecIdent.Decl]
			if sl != nil && sl.st == stSSA {
				vec, err := g.read(sl)
				if err != nil {
					return nil, err
				}
				lane, err := lw.lowerExpr(g, lhs.Idx)
				if err != nil {
					return nil, err
				}
				old := g.b.Extract(vec, lane)
				val, err := rhsOf(old)
				if err != nil {
					return nil, err
				}
				if val.Kind == ir.KindInt {
					val = g.b.IntToFloat(val)
				}
				nv := g.b.Insert(vec, lane, val)
				g.write(sl, nv)
				return val, nil
			}
		}
		// Lane write into an array-of-vector element: load, insert, store.
		vecIndex, ok := lhs.Vec.(*minic.Index)
		if !ok {
			return nil, lw.errf(x.Pos, "unsupported vector lane assignment target")
		}
		sl, idx, err := lw.resolveArrayAccess(g, vecIndex)
		if err != nil {
			return nil, err
		}
		_, lanes := irKind(vecIndex.Type())
		vec := g.b.Load(sl.arr, idx, ir.KindVec, lanes, 1)
		vec.Pred = g.pred
		lw.attachMem(g, vec, false)
		lane, err := lw.lowerExpr(g, lhs.Idx)
		if err != nil {
			return nil, err
		}
		old := g.b.Extract(vec, lane)
		val, err := rhsOf(old)
		if err != nil {
			return nil, err
		}
		if val.Kind == ir.KindInt {
			val = g.b.IntToFloat(val)
		}
		nv := g.b.Insert(vec, lane, val)
		st := g.b.Store(sl.arr, idx, nv, 1)
		st.Pred = g.pred
		lw.attachMem(g, st, true)
		return val, nil

	case *minic.VecLoad:
		// *((VECTOR*)&C[i]) op= v : wide store to a global array.
		id, ok := lhs.Base.(*minic.Ident)
		if !ok {
			return nil, lw.errf(x.Pos, "vector store base must be a variable")
		}
		sl := lw.slots[id.Decl]
		if sl == nil || sl.st != stGlobalArr {
			return nil, lw.errf(x.Pos, "vector store base %s must be a mapped global array", id.Name)
		}
		idx, err := lw.lowerExpr(g, lhs.Idx)
		if err != nil {
			return nil, err
		}
		lanes := lhs.Type().Lanes
		var old *ir.Node
		if x.Op != nil {
			old = g.b.Load(sl.arr, idx, ir.KindVec, lanes, lanes)
			old.Pred = g.pred
			lw.attachMem(g, old, false)
		}
		val, err := rhsOf(old)
		if err != nil {
			return nil, err
		}
		if val.Kind != ir.KindVec {
			if val.Kind == ir.KindInt {
				val = g.b.IntToFloat(val)
			}
			val = g.b.Splat(val, lanes)
		}
		st := g.b.Store(sl.arr, idx, val, lanes)
		st.Pred = g.pred
		lw.attachMem(g, st, true)
		return val, nil
	}
	return nil, lw.errf(x.Pos, "unsupported assignment target %T", x.LHS)
}
