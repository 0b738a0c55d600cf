package depend

import (
	"paravis/internal/minic"
)

// lookup resolves a scalar to its affine value. Scalars mutated inside
// any enclosing loop vary per iteration in ways the domain does not
// track (the recognized induction variables are the exception and are
// excluded from the assigned sets), so they evaluate to bottom.
func (w *walker) lookup(d minic.Decl) aff {
	// An active loop's recognized induction variable is tracked exactly
	// (it necessarily appears in enclosing loops' assigned sets via its
	// own step).
	for i := len(w.loops) - 1; i >= 0; i-- {
		if l := w.loops[i]; l.hasIV && l.iv == d {
			if a, ok := w.sym(d); ok {
				return a
			}
			break
		}
	}
	for _, l := range w.loops {
		if d != l.iv && l.assigned.Has(d) {
			return affBottom()
		}
	}
	if a, ok := w.sym(d); ok {
		return a
	}
	if d == nil {
		return affBottom()
	}
	if v, ok := w.env[d.DeclName()]; ok {
		return w.al.affConst(v)
	}
	if _, isParam := d.(*minic.Param); isParam {
		return affPoly(w.al.sym(symbol{name: d.DeclName()}))
	}
	return affBottom()
}

// evalAff evaluates an integer expression to an affine form over the
// enclosing loops' iteration indices.
func (w *walker) evalAff(e minic.Expr) aff {
	switch x := e.(type) {
	case *minic.IntLit:
		return w.al.affConst(x.Value)
	case *minic.Ident:
		return w.lookup(x.Decl)
	case *minic.Unary:
		if x.Neg {
			return w.al.affNeg(w.evalAff(x.X))
		}
		return affBottom()
	case *minic.Binary:
		return w.al.binop(x.Op, w.evalAff(x.L), w.evalAff(x.R))
	case *minic.Call:
		switch x.Name {
		case "omp_get_thread_num":
			return affPoly(w.al.sym(symbol{name: tidSym}))
		case "omp_get_num_threads":
			return w.al.affConst(int64(w.nt))
		}
		return affBottom()
	}
	return affBottom()
}

// binop applies an arithmetic operator to two affine values; division
// and remainder need a positive constant divisor.
func (al *algebra) binop(op minic.BinOp, l, r aff) aff {
	switch op {
	case minic.OpAdd:
		return al.affAdd(l, r)
	case minic.OpSub:
		return al.affSub(l, r)
	case minic.OpMul:
		return al.affMul(l, r)
	case minic.OpDiv, minic.OpRem:
		if c, ok := r.constVal(); ok && c > 0 {
			return al.divMod(l, c, op == minic.OpRem)
		}
	}
	return affBottom()
}

// expr walks an expression for its array accesses and scalar binding
// effects, in evaluation order.
func (w *walker) expr(e minic.Expr) {
	minic.Accesses(e, func(a minic.Access) {
		if id, ok := a.Node.(*minic.Ident); ok && a.Write {
			w.bind(id.Decl, a.By)
		}
		switch x := a.Holder().(type) {
		case *minic.Index:
			w.recordIndex(x, a.Write)
		case *minic.VecLoad:
			w.recordVec(x, a.Write)
		}
	})
}

// bind gives a scalar the affine value the assignment or step by stores:
// `v = e` binds e, `v op= e` the old value op e, and ++/-- add ±1. A store
// under a predicate may not happen, so it leaves v unknown. So does the
// step of the innermost loop's induction variable (minic.Counted lets
// nothing else write it): the next iteration's binding replaces it, and
// past the loop it is unknown anyway.
func (w *walker) bind(d minic.Decl, by minic.Expr) {
	if w.predDepth > 0 || len(w.loops) > 0 && w.loops[len(w.loops)-1].iv == d {
		w.bindSym(d, affBottom())
		return
	}
	switch x := by.(type) {
	case *minic.AssignExpr:
		v := w.evalAff(x.RHS)
		if x.Op != nil {
			v = w.al.binop(*x.Op, w.lookup(d), v)
		}
		w.bindSym(d, v)
	case *minic.IncDec:
		step := int64(-1)
		if x.Inc {
			step = 1
		}
		w.bindSym(d, w.al.affAdd(w.lookup(d), w.al.affConst(step)))
	}
}

// recordIndex records one array element access. The subscript is
// linearized to a scalar-word index so vector-element arrays and their
// lane accesses live in one address space.
func (w *walker) recordIndex(x *minic.Index, write bool) {
	id, ok := x.Base.(*minic.Ident)
	if !ok {
		return
	}
	arr := w.array(id.Decl)
	if arr == nil {
		return
	}
	a := access{arr: arr, write: write, pos: x.Pos, width: 1, sub: affBottom(), node: x}
	switch {
	case arr.dram && len(x.Idx) == 1:
		a.sub = w.evalAff(x.Idx[0])
	case len(x.Idx) == len(arr.dims):
		a.sub = w.linearize(x.Idx, arr)
		a.width = int64(arr.lanes)
	case len(x.Idx) == len(arr.dims)+1 && arr.lanes > 1:
		// Lane access into a vector-element array.
		elem := w.linearize(x.Idx[:len(x.Idx)-1], arr)
		a.sub = w.al.affAdd(elem, w.evalAff(x.Idx[len(x.Idx)-1]))
	}
	w.push(a)
}

func (w *walker) linearize(idx []minic.Expr, arr *arrayInfo) aff {
	acc := w.evalAff(idx[0])
	for i := 1; i < len(idx); i++ {
		acc = w.al.affAdd(w.al.affMul(acc, w.al.affConst(int64(arr.dims[i]))), w.evalAff(idx[i]))
	}
	return w.al.affMul(acc, w.al.affConst(int64(arr.lanes)))
}

func (w *walker) recordVec(x *minic.VecLoad, write bool) {
	id, ok := x.Base.(*minic.Ident)
	if !ok {
		return
	}
	arr := w.array(id.Decl)
	if arr == nil {
		return
	}
	width := int64(1)
	if t := x.Type(); t != nil && t.Lanes > 1 {
		width = int64(t.Lanes)
	}
	w.push(access{arr: arr, write: write, pos: x.Pos, width: width, sub: w.evalAff(x.Idx), node: x})
}

func (w *walker) push(a access) {
	if a.sub.ok {
		a.rest, a.tid, a.tidOK = w.al.tidSplit(a.sub.base)
	}
	a.loops = w.chains.Carve(w.loops)
	a.pred = w.predDepth > 0
	a.critical = w.critDepth > 0
	w.accs = append(w.accs, w.accSlab.New(a))
}
