package depend

import "paravis/internal/minic"

// loopInfo is one ForStmt in the target region with its recognized
// induction variable. Loops whose induction pattern is not recognized
// are still registered (so accesses under them poison conservatively);
// hasIV is false and every reference to the iv evaluates to bottom.
type loopInfo struct {
	name   string
	pos    minic.Pos
	depth  int
	unroll int
	parent *loopInfo

	iv     minic.Decl // the recognized induction variable, nil unless hasIV
	hasIV  bool
	step   int64 // per-iteration value increment, != 0 when hasIV
	init   aff   // iv value at iteration 0, evaluated in the outer context
	bound  aff   // exclusive bound for step>0 / inclusive handled via boundAdj
	hasBnd bool
	// last and lastOK are iterLast's answer, computed once per loop.
	last   poly
	lastOK bool

	threadLoop bool
	// assigned collects scalars written anywhere in the condition, body
	// or post clauses (except the iv itself): inside the loop their value
	// varies per iteration in ways the affine domain does not track, so
	// references evaluate to bottom.
	assigned map[minic.Decl]bool
}

// iterLast returns a polynomial upper bound U on the loop's last
// iteration index (t <= U). It is exact for unit steps and conservative
// (value-span based) otherwise, which is sound: a larger iteration
// range only widens intervals.
func (l *loopInfo) iterLast() (poly, bool) {
	if !l.hasIV || !l.hasBnd || !l.init.isInvariant() || !l.bound.isInvariant() {
		return nil, false
	}
	span := l.bound.base.sub(l.init.base).sub(polyConst(1))
	if l.step < 0 {
		span = l.init.base.sub(l.bound.base).sub(polyConst(1))
	}
	// The tid pseudo-symbol in a bound would make the span per-thread;
	// substitute its worst case (tid >= 0 keeps the span an upper
	// bound when the tid coefficient is <= 0, i.e. "start at my_id").
	if span.hasTid() {
		rest, tidCoef, ok := span.tidSplit()
		if !ok || !tidCoef.negate().isNonNeg() {
			return nil, false
		}
		span = rest // tid term <= 0: dropping it can only increase span
	}
	step := l.step
	if step < 0 {
		step = -step
	}
	if step > 1 {
		if span.divisibleBy(step) {
			span = span.divInt(step)
		} else if c, ok := span.constVal(); ok {
			span = polyConst(c / step)
		}
		// Otherwise keep the value span: t <= span since step >= 1.
	}
	return span, true
}

// encloses reports whether l is L or one of L's ancestors.
func (l *loopInfo) encloses(L *loopInfo) bool {
	for p := L; p != nil; p = p.parent {
		if p == l {
			return true
		}
	}
	return false
}

// arrayInfo describes one array (mapped DRAM pointer or local BRAM
// array).
type arrayInfo struct {
	name  string
	dram  bool
	dims  []int // declared dimensions (empty for mapped pointers)
	lanes int   // scalar words per element (vector-element arrays)
}

// access is one array read or write with its affine element subscript
// (in scalar words) and the loop chain enclosing it, outermost first.
type access struct {
	arr      *arrayInfo
	write    bool
	pos      minic.Pos
	width    int64
	sub      aff
	loops    []*loopInfo
	pred     bool // under an if: may not execute every iteration
	critical bool
	// node is the AST access node, the key an external range oracle
	// (internal/absint) uses to attach proven element-index ranges.
	node minic.Expr
	// rest and tid are sub.base's tidSplit, made once per access.
	rest, tid poly
	tidOK     bool
}

// walker binds scalars and arrays by declaration, so C scoping needs no
// bookkeeping here: a shadowing declaration is simply a different key.
type walker struct {
	nt     int
	env    map[string]int64
	ranges RangeFn

	arrays map[minic.Decl]*arrayInfo
	syms   map[minic.Decl]aff

	loops    []*loopInfo
	allLoops []*loopInfo
	accs     []*access

	predDepth int
	critDepth int

	// lo and hi are carriedAt's scratch overlap interval.
	lo, hi poly
}

func newWalker(fn *minic.FuncDecl, nt int, env map[string]int64) *walker {
	w := &walker{
		nt:     nt,
		env:    env,
		arrays: map[minic.Decl]*arrayInfo{},
		syms:   map[minic.Decl]aff{},
		lo:     poly{},
		hi:     poly{},
	}
	for _, p := range fn.Params {
		if p.Type.IsPointer() {
			w.arrays[p] = &arrayInfo{name: p.Name, dram: true, lanes: 1}
		}
	}
	return w
}

func (w *walker) block(b *minic.BlockStmt) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		w.stmt(s)
	}
}

func (w *walker) stmt(s minic.Stmt) {
	switch st := s.(type) {
	case *minic.DeclStmt:
		w.decl(st)
	case *minic.ExprStmt:
		w.expr(st.X)
	case *minic.BlockStmt:
		w.block(st)
	case *minic.ForStmt:
		w.forStmt(st)
	case *minic.IfStmt:
		w.expr(st.Cond)
		w.predDepth++
		w.block(st.Then)
		w.block(st.Else)
		w.predDepth--
	case *minic.CriticalStmt:
		w.critDepth++
		w.block(st.Body)
		w.critDepth--
	case *minic.ReturnStmt:
		if st.X != nil {
			w.expr(st.X)
		}
	case *minic.BarrierStmt, *minic.TargetStmt:
		// Nested targets do not occur; barriers carry no accesses.
	}
}

func (w *walker) decl(st *minic.DeclStmt) {
	if st.Typ.IsArray() {
		lanes := 1
		if st.Typ.Elem != nil && st.Typ.Elem.Lanes > 1 {
			lanes = st.Typ.Elem.Lanes
		} else if st.Typ.Lanes > 1 {
			lanes = st.Typ.Lanes
		}
		w.arrays[st] = &arrayInfo{name: st.Name, dims: st.Typ.Dims, lanes: lanes}
		return
	}
	if st.Init != nil {
		w.expr(st.Init)
		w.syms[st] = w.evalAff(st.Init)
	} else {
		w.syms[st] = affBottom()
	}
}

// forStmt recognizes the induction pattern, registers the loop, and
// walks init/cond/body/post.
func (w *walker) forStmt(st *minic.ForStmt) {
	l := &loopInfo{
		name:   minic.LoopName(st),
		pos:    st.Pos,
		depth:  len(w.loops) + 1,
		unroll: st.Unroll,
	}
	if len(w.loops) > 0 {
		l.parent = w.loops[len(w.loops)-1]
	}

	// A counted loop whose step folds to a nonzero constant (in the
	// context outside the loop) has a trackable induction variable.
	cl := minic.Counted(st)
	var step int64
	if cl != nil {
		step = cl.Sign
		if cl.Step != nil {
			c, ok := w.evalAff(cl.Step).constVal()
			if !ok {
				c = 0
			}
			step *= c
		}
	}
	// Init clauses run exactly once whenever the loop is reached, so a
	// plain `v = e` binds v even under a predicate (where assign would
	// give up); past the loop such a binding is only a maybe again.
	var predInit []minic.Decl
	for _, s := range st.Init {
		es, ok := s.(*minic.ExprStmt)
		if !ok {
			w.stmt(s)
			continue
		}
		if as, ok := es.X.(*minic.AssignExpr); ok && as.Op == nil {
			if id, ok := as.LHS.(*minic.Ident); ok {
				w.expr(as.RHS)
				w.syms[id.Decl] = w.evalAff(as.RHS)
				if w.predDepth > 0 {
					predInit = append(predInit, id.Decl)
				}
				continue
			}
		}
		w.expr(es.X)
	}
	if step != 0 {
		l.iv, l.hasIV, l.step = cl.IV, true, step
		// The init clause walk (or an earlier statement, for
		// `for (; i < n;)` forms) bound the iv's starting value.
		if v, ok := w.syms[l.iv]; ok {
			l.init = v
		} else {
			l.init = affBottom()
		}
		if l.init.ok && l.init.base.hasTid() {
			l.threadLoop = true
		}
		if adj, ok := cl.ExclusiveBound(l.step); ok {
			if b := w.evalAff(cl.Bound); b.ok {
				l.bound, l.hasBnd = b.add(affConst(adj)), true
			}
		}
	}
	l.last, l.lastOK = l.iterLast()
	// Scalars mutated in the loop vary per iteration.
	l.assigned = minic.LoopAssigned(st)
	delete(l.assigned, l.iv)

	w.loops = append(w.loops, l)
	w.allLoops = append(w.allLoops, l)
	if l.hasIV {
		iv := l.init.clone()
		if iv.ok {
			iv = iv.add(aff{ok: true}.setCoef(l, polyConst(l.step)))
		}
		w.syms[l.iv] = iv
	}
	if st.Cond != nil {
		w.expr(st.Cond)
	}
	w.block(st.Body)
	for _, s := range st.Post {
		if es, ok := s.(*minic.ExprStmt); ok {
			w.expr(es.X)
		}
	}
	w.loops = w.loops[:len(w.loops)-1]
	// Any binding still referencing the exited loop's iteration var is
	// a loop-exit value the affine domain cannot express.
	for d, a := range w.syms {
		if a.ok {
			if _, refs := a.coef[l]; refs {
				w.syms[d] = affBottom()
			}
		}
	}
	for _, d := range predInit {
		w.syms[d] = affBottom()
	}
}
