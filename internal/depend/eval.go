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
			if a, ok := w.syms[d]; ok {
				return a
			}
			break
		}
	}
	for _, l := range w.loops {
		if l.assigned[d] {
			return affBottom()
		}
	}
	if a, ok := w.syms[d]; ok {
		return a
	}
	if d == nil {
		return affBottom()
	}
	if v, ok := w.env[d.DeclName()]; ok {
		return affConst(v)
	}
	if _, isParam := d.(*minic.Param); isParam {
		return affPoly(polySym(d.DeclName()))
	}
	return affBottom()
}

// evalAff evaluates an integer expression to an affine form over the
// enclosing loops' iteration indices.
func (w *walker) evalAff(e minic.Expr) aff {
	switch x := e.(type) {
	case *minic.IntLit:
		return affConst(x.Value)
	case *minic.Ident:
		return w.lookup(x.Decl)
	case *minic.Unary:
		if x.Neg {
			return w.evalAff(x.X).negate()
		}
		return affBottom()
	case *minic.Binary:
		switch x.Op {
		case minic.OpAdd:
			return w.evalAff(x.L).add(w.evalAff(x.R))
		case minic.OpSub:
			return w.evalAff(x.L).sub(w.evalAff(x.R))
		case minic.OpMul:
			return w.evalAff(x.L).mul(w.evalAff(x.R))
		case minic.OpDiv, minic.OpRem:
			c, ok := w.evalAff(x.R).constVal()
			if !ok || c <= 0 {
				return affBottom()
			}
			return w.evalAff(x.L).divMod(c, x.Op == minic.OpRem)
		}
		return affBottom()
	case *minic.Call:
		switch x.Name {
		case "omp_get_thread_num":
			return affPoly(polySym(tidSym))
		case "omp_get_num_threads":
			return affConst(int64(w.nt))
		}
		return affBottom()
	}
	return affBottom()
}

// expr walks an expression for its array accesses and scalar binding
// effects.
func (w *walker) expr(e minic.Expr) {
	switch x := e.(type) {
	case *minic.AssignExpr:
		w.assign(x)
	case *minic.IncDec:
		switch t := x.X.(type) {
		case *minic.Ident:
			cur := w.lookup(t.Decl)
			if w.predDepth > 0 || !cur.ok {
				w.syms[t.Decl] = affBottom()
			} else {
				d := int64(1)
				if !x.Inc {
					d = -1
				}
				w.syms[t.Decl] = cur.add(affConst(d))
			}
		case *minic.Index:
			w.walkSubscripts(t)
			w.recordIndex(t, false)
			w.recordIndex(t, true)
		}
	case *minic.Index:
		w.walkSubscripts(x)
		w.recordIndex(x, false)
	case *minic.VecLoad:
		w.expr(x.Idx)
		w.recordVec(x, false)
	default:
		// Everything else only holds subexpressions.
		minic.EachChild(e, func(c minic.Node) { w.expr(c.(minic.Expr)) })
	}
}

func (w *walker) assign(x *minic.AssignExpr) {
	w.expr(x.RHS)
	switch lhs := x.LHS.(type) {
	case *minic.Ident:
		if w.predDepth > 0 {
			w.syms[lhs.Decl] = affBottom()
		} else {
			w.syms[lhs.Decl] = w.evalAff(x.RHS)
		}
	case *minic.Index:
		w.walkSubscripts(lhs)
		if x.Op != nil {
			w.recordIndex(lhs, false)
		}
		w.recordIndex(lhs, true)
	case *minic.VecLoad:
		w.expr(lhs.Idx)
		if x.Op != nil {
			w.recordVec(lhs, false)
		}
		w.recordVec(lhs, true)
	case *minic.VecElem:
		w.expr(lhs.Vec)
		w.expr(lhs.Idx)
	}
}

func (w *walker) walkSubscripts(x *minic.Index) {
	for _, idx := range x.Idx {
		w.expr(idx)
	}
	if _, ok := x.Base.(*minic.Ident); !ok {
		w.expr(x.Base)
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
	arr, ok := w.arrays[id.Decl]
	if !ok {
		return
	}
	a := &access{arr: arr, write: write, pos: x.Pos, width: 1, sub: affBottom(), node: x}
	switch {
	case arr.dram && len(x.Idx) == 1:
		a.sub = w.evalAff(x.Idx[0])
	case len(x.Idx) == len(arr.dims):
		a.sub = w.linearize(x.Idx, arr)
		a.width = int64(arr.lanes)
	case len(x.Idx) == len(arr.dims)+1 && arr.lanes > 1:
		// Lane access into a vector-element array.
		elem := w.linearize(x.Idx[:len(x.Idx)-1], arr)
		a.sub = elem.add(w.evalAff(x.Idx[len(x.Idx)-1]))
	}
	w.push(a)
}

func (w *walker) linearize(idx []minic.Expr, arr *arrayInfo) aff {
	acc := w.evalAff(idx[0])
	for i := 1; i < len(idx); i++ {
		acc = acc.mul(affConst(int64(arr.dims[i]))).add(w.evalAff(idx[i]))
	}
	return acc.mul(affConst(int64(arr.lanes)))
}

func (w *walker) recordVec(x *minic.VecLoad, write bool) {
	id, ok := x.Base.(*minic.Ident)
	if !ok {
		return
	}
	arr, ok := w.arrays[id.Decl]
	if !ok {
		return
	}
	width := int64(1)
	if t := x.Type(); t != nil && t.Lanes > 1 {
		width = int64(t.Lanes)
	}
	w.push(&access{arr: arr, write: write, pos: x.Pos, width: width, sub: w.evalAff(x.Idx), node: x})
}

func (w *walker) push(a *access) {
	if a.sub.ok {
		a.rest, a.tid, a.tidOK = a.sub.base.tidSplit()
	}
	a.loops = append([]*loopInfo(nil), w.loops...)
	a.pred = w.predDepth > 0
	a.critical = w.critDepth > 0
	w.accs = append(w.accs, a)
}
