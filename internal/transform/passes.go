package transform

import "paravis/internal/minic"

// loopShape is the canonical counted-loop header the passes understand:
// `for (int v = init; v < bound; ++v | v += step)`.
type loopShape struct {
	v     string
	init  minic.Expr
	bound minic.Expr
	step  minic.Expr // nil means ++v (step 1)
}

// shapeOf narrows minic.Counted to the header the rewrites can rebuild
// with setHeader: a single `int v = init` clause, a single `++v` or
// `v += step` clause, and the condition written `v < bound`.
func shapeOf(st *minic.ForStmt) *loopShape {
	cl := minic.Counted(st)
	if cl == nil || len(st.Init) != 1 || len(st.Post) != 1 || cl.Sign < 0 || cl.Op != minic.OpLt {
		return nil
	}
	d, ok := cl.IV.(*minic.DeclStmt)
	if !ok || st.Init[0] != minic.Stmt(d) || !d.Typ.IsScalar() || d.Typ.Basic != minic.Int || d.Init == nil {
		return nil
	}
	if l, ok := st.Cond.(*minic.Binary).L.(*minic.Ident); !ok || l.Decl != cl.IV {
		return nil // written `bound > v`
	}
	if as, ok := cl.Post.X.(*minic.AssignExpr); ok && as.Op == nil {
		return nil // written `v = v + step`
	}
	return &loopShape{v: d.Name, init: d.Init, bound: cl.Bound, step: cl.Step}
}

// stepConst folds the loop's per-iteration stride.
func (sh *loopShape) stepConst(env map[string]int64) (int64, bool) {
	if sh.step == nil {
		return 1, true
	}
	return foldConst(sh.step, env)
}

// setHeader rewrites the loop header in place, keeping the variable name.
func setHeader(st *minic.ForStmt, v string, init, bound minic.Expr, post minic.Stmt) {
	st.Init = []minic.Stmt{declInt(v, init)}
	st.Cond = lt(id(v), bound)
	st.Post = []minic.Stmt{post}
}

func postAdd(v string, step minic.Expr) minic.Stmt {
	op := minic.OpAdd
	return exprStmt(&minic.AssignExpr{LHS: id(v), Op: &op, RHS: step})
}

func postInc(v string) minic.Stmt {
	return exprStmt(&minic.IncDec{X: id(v), Inc: true})
}

// --- unroll -------------------------------------------------------------

// unroll sets the loop's #pragma unroll factor. The lowering expands it
// as guarded replicas, so any trip count is legal; the gate is purely
// the dependence verdict.
func unroll(c *passCtx, st *minic.ForStmt, factor int64) error {
	name := minic.LoopName(st)
	if factor < 2 {
		return notApplicable(PassUnroll, name, "factor %d < 2", factor)
	}
	if st.Cond == nil || len(st.Post) == 0 {
		return notApplicable(PassUnroll, name, "loop has no condition or post statement")
	}
	if st.Unroll == int(factor) {
		return nil // identity re-application
	}
	ld, err := c.loopDeps(PassUnroll, st)
	if err != nil {
		return err
	}
	if err := gate(PassUnroll, ld, ld.Legal.Unroll, ld.Legal.UnrollWhy); err != nil || c.readOnly {
		return err
	}
	st.Unroll = int(factor)
	return nil
}

// --- tile ---------------------------------------------------------------

// matchTile accepts plain counted loops whose bounds fold against the
// launch parameters (thread-distributed loops keep their stride and are
// handled by block-bram instead).
func matchTile(c *passCtx, st *minic.ForStmt) error {
	name := minic.LoopName(st)
	sh := shapeOf(st)
	if sh == nil {
		return notApplicable(PassTile, name, "loop header is not a plain counted loop")
	}
	if _, ok := sh.stepConst(c.env); !ok {
		return notApplicable(PassTile, name, "loop stride does not fold to a constant")
	}
	ld := c.rep.Loop(name)
	if ld == nil || ld.ThreadLoop {
		return notApplicable(PassTile, name, "loop is thread-distributed")
	}
	if _, ok := foldConst(sh.init, c.env); !ok {
		return notApplicable(PassTile, name, "loop start does not fold to a constant")
	}
	if _, ok := foldConst(sh.bound, c.env); !ok {
		return notApplicable(PassTile, name, "loop bound does not fold against the launch parameters")
	}
	return nil
}

// tile strip-mines `for (v = c0; v < B; v += c)` into a tile loop of
// stride size*c and an intra-tile loop of the original stride. The body
// is untouched (the intra-tile loop reuses the induction variable), so
// tiling is trivially semantics-preserving; the Tile legality verdict
// still gates it because tiling exists to enable reordering.
func tile(c *passCtx, st *minic.ForStmt, size int64) error {
	name := minic.LoopName(st)
	if err := matchTile(c, st); err != nil {
		return err
	}
	if size < 2 {
		return notApplicable(PassTile, name, "tile size %d < 2", size)
	}
	sh := shapeOf(st)
	step, _ := sh.stepConst(c.env)
	c0, _ := foldConst(sh.init, c.env)
	bound, _ := foldConst(sh.bound, c.env)
	span := bound - c0
	if span <= 0 || span%(size*step) != 0 {
		return notApplicable(PassTile, name, "iteration span %d is not a multiple of tile %d*%d", span, size, step)
	}
	if span/(size*step) < 2 {
		return notApplicable(PassTile, name, "tile %d covers the whole loop", size)
	}
	ld, err := c.loopDeps(PassTile, st)
	if err != nil {
		return err
	}
	if err := gate(PassTile, ld, ld.Legal.Tile, ld.Legal.TileWhy); err != nil || c.readOnly {
		return err
	}

	v0 := fresh(c.used, sh.v+"0")
	inner := &minic.ForStmt{
		Init:   []minic.Stmt{declInt(sh.v, id(v0))},
		Cond:   lt(id(sh.v), add(id(v0), lit(size*step))),
		Body:   st.Body,
		Unroll: st.Unroll,
	}
	if step == 1 {
		inner.Post = []minic.Stmt{postInc(sh.v)}
	} else {
		inner.Post = []minic.Stmt{postAdd(sh.v, lit(step))}
	}
	setHeader(st, v0, cloneExpr(sh.init, nil), cloneExpr(sh.bound, nil), postAdd(v0, lit(size*step)))
	st.Unroll = 0
	st.Body = block(inner)
	return nil
}

// --- redistribute -------------------------------------------------------

type redistMatch struct {
	kShape   *loopShape        // the thread-strided reduction loop
	distLoop *minic.ForStmt    // enclosing loop to thread-distribute
	write    *minic.AssignExpr // C[e] += acc inside the critical
	owner    *minic.BlockStmt  // the statement list holding the critical
	critAt   int               // its index there
}

// matchRedistribute recognizes the naive GEMM reduction: a
// thread-strided accumulation loop followed by a critical section that
// merges the partial sum into an output element whose subscript is
// invariant in the reduction variable.
func matchRedistribute(c *passCtx, st *minic.ForStmt) error {
	_, err := findRedistribute(c, st)
	return err
}

func findRedistribute(c *passCtx, st *minic.ForStmt) (*redistMatch, error) {
	name := minic.LoopName(st)
	sh := shapeOf(st)
	if sh == nil {
		return nil, notApplicable(PassRedistribute, name, "loop header is not a plain counted loop")
	}
	ld := c.rep.Loop(name)
	if ld == nil || !ld.ThreadLoop {
		return nil, notApplicable(PassRedistribute, name, "loop is not thread-distributed")
	}
	if sh.step == nil {
		return nil, notApplicable(PassRedistribute, name, "loop has no symbolic stride")
	}
	// Body: a single accumulation into a scalar.
	if len(st.Body.Stmts) != 1 {
		return nil, notApplicable(PassRedistribute, name, "reduction body is not a single statement")
	}
	es, ok := st.Body.Stmts[0].(*minic.ExprStmt)
	if !ok {
		return nil, notApplicable(PassRedistribute, name, "reduction body is not an expression")
	}
	acc, ok := es.X.(*minic.AssignExpr)
	if !ok || acc.Op == nil || *acc.Op != minic.OpAdd {
		return nil, notApplicable(PassRedistribute, name, "reduction body is not a += accumulation")
	}
	accV, ok := acc.LHS.(*minic.Ident)
	if !ok {
		return nil, notApplicable(PassRedistribute, name, "accumulator is not a scalar")
	}
	// The statement after the loop must be the critical merge.
	owner, at := ownerOf(c.fn, st)
	if owner == nil || at+1 >= len(owner.Stmts) {
		return nil, notApplicable(PassRedistribute, name, "no statement follows the reduction loop")
	}
	crit, ok := owner.Stmts[at+1].(*minic.CriticalStmt)
	if !ok || len(crit.Body.Stmts) != 1 {
		return nil, notApplicable(PassRedistribute, name, "reduction is not followed by a single-statement critical section")
	}
	ces, ok := crit.Body.Stmts[0].(*minic.ExprStmt)
	if !ok {
		return nil, notApplicable(PassRedistribute, name, "critical body is not an expression")
	}
	merge, ok := ces.X.(*minic.AssignExpr)
	if !ok || merge.Op == nil || *merge.Op != minic.OpAdd {
		return nil, notApplicable(PassRedistribute, name, "critical body is not a += merge")
	}
	out, ok := merge.LHS.(*minic.Index)
	if !ok {
		return nil, notApplicable(PassRedistribute, name, "critical merge target is not an array element")
	}
	rhsV, ok := merge.RHS.(*minic.Ident)
	if !ok || rhsV.Name != accV.Name {
		return nil, notApplicable(PassRedistribute, name, "critical merge does not add the loop's accumulator")
	}
	// The output subscript must be invariant in the reduction variable
	// and must name an enclosing plain loop to take over the thread
	// distribution.
	var subNames = map[string]bool{}
	for _, ix := range out.Idx {
		for n := range identNames(ix) {
			subNames[n] = true
		}
	}
	if subNames[sh.v] {
		return nil, notApplicable(PassRedistribute, name, "output subscript varies with the reduction variable")
	}
	var dist *minic.ForStmt
	for _, l := range forsUnder(c.fn.Body) { // outermost-first
		lsh := shapeOf(l)
		if lsh == nil || !subNames[lsh.v] {
			continue
		}
		for _, in := range forsUnder(l.Body) {
			if in == st {
				dist = l
				break
			}
		}
		if dist != nil {
			break
		}
	}
	if dist == nil {
		return nil, notApplicable(PassRedistribute, name, "no enclosing loop indexes the output")
	}
	dsh := shapeOf(dist)
	if dc, ok := dsh.stepConst(c.env); !ok || dc != 1 {
		return nil, notApplicable(PassRedistribute, name, "enclosing output loop is not unit-stride")
	}
	if dld := c.rep.Loop(minic.LoopName(dist)); dld == nil || dld.ThreadLoop {
		return nil, notApplicable(PassRedistribute, name, "enclosing output loop is already thread-distributed")
	}
	return &redistMatch{kShape: sh, distLoop: dist, write: merge, owner: owner, critAt: at + 1}, nil
}

// redistribute moves the thread distribution from the reduction loop to
// an enclosing output loop: each thread then owns disjoint output
// elements, the partial-sum merge races disappear, and the critical
// section is dropped (v1 → v2 of the paper's ladder). The from-mapped
// output starts zeroed, so `+=` under mutual exclusion becomes a plain
// store.
func redistribute(c *passCtx, st *minic.ForStmt) error {
	m, err := findRedistribute(c, st)
	if err != nil {
		return err
	}
	// Gates: reassigning iterations of either loop to different threads
	// is an iteration reordering; both loops must have no loop-carried
	// dependence (the Unroll verdict). The critical section itself makes
	// the merge safe in the source, so the engine proves both today.
	ld, err := c.loopDeps(PassRedistribute, st)
	if err != nil {
		return err
	}
	if err := gate(PassRedistribute, ld, ld.Legal.Unroll, ld.Legal.UnrollWhy); err != nil {
		return err
	}
	dld, err := c.loopDeps(PassRedistribute, m.distLoop)
	if err != nil {
		return err
	}
	if err := gate(PassRedistribute, dld, dld.Legal.Unroll, dld.Legal.UnrollWhy); err != nil || c.readOnly {
		return err
	}

	threadInit := cloneExpr(m.kShape.init, nil)
	threadStep := cloneExpr(m.kShape.step, nil)
	dsh := shapeOf(m.distLoop)

	// Reduction loop becomes a plain full-range loop; body untouched.
	setHeader(st, m.kShape.v, lit(0), cloneExpr(m.kShape.bound, nil), postInc(m.kShape.v))

	// Enclosing output loop takes over the thread distribution.
	setHeader(m.distLoop, dsh.v, threadInit, cloneExpr(dsh.bound, nil), postAdd(dsh.v, threadStep))

	// The critical merge becomes a plain store of the full sum.
	m.write.Op = nil
	splice(m.owner, m.critAt, exprStmt(m.write))
	return nil
}

// --- vectorize ----------------------------------------------------------

type vecMatch struct {
	sh       *loopShape
	acc      *minic.Ident
	vecIdx   *minic.Index // the unit-stride operand to widen
	other    minic.Expr   // the remaining factor
	vecFirst bool         // vecIdx was the left factor
	c0, d    int64
}

// matchVectorize recognizes a unit-stride scalar reduction
// `for (k) acc += X[base + k] * other` whose widened load stays aligned:
// the paper's partial-vectorization rung (v2 → v3).
func matchVectorize(c *passCtx, st *minic.ForStmt) (*vecMatch, error) {
	name := minic.LoopName(st)
	sh := shapeOf(st)
	if sh == nil {
		return nil, notApplicable(PassVectorize, name, "loop header is not a plain counted loop")
	}
	if s, ok := sh.stepConst(c.env); !ok || s != 1 {
		return nil, notApplicable(PassVectorize, name, "loop stride is not 1")
	}
	if len(st.Body.Stmts) != 1 {
		return nil, notApplicable(PassVectorize, name, "body is not a single accumulation")
	}
	es, ok := st.Body.Stmts[0].(*minic.ExprStmt)
	if !ok {
		return nil, notApplicable(PassVectorize, name, "body is not an expression")
	}
	asn, ok := es.X.(*minic.AssignExpr)
	if !ok || asn.Op == nil || *asn.Op != minic.OpAdd {
		return nil, notApplicable(PassVectorize, name, "body is not a += accumulation")
	}
	acc, ok := asn.LHS.(*minic.Ident)
	if !ok {
		return nil, notApplicable(PassVectorize, name, "accumulator is not a scalar")
	}
	prod, ok := asn.RHS.(*minic.Binary)
	if !ok || prod.Op != minic.OpMul {
		return nil, notApplicable(PassVectorize, name, "accumulated value is not a product")
	}
	lanes := int64(c.lanes)
	pick := func(e minic.Expr) *minic.Index {
		ix, ok := e.(*minic.Index)
		if !ok || len(ix.Idx) != 1 {
			return nil
		}
		base, ok := ix.Base.(*minic.Ident)
		if !ok || !isPointerParam(base) {
			return nil
		}
		if !unitStrideAligned(ix.Idx[0], sh.v, lanes, c.env) {
			return nil
		}
		return ix
	}
	m := &vecMatch{sh: sh, acc: acc}
	if ix := pick(prod.L); ix != nil {
		m.vecIdx, m.other, m.vecFirst = ix, prod.R, true
	} else if ix := pick(prod.R); ix != nil {
		m.vecIdx, m.other, m.vecFirst = ix, prod.L, false
	} else {
		return nil, notApplicable(PassVectorize, name, "no unit-stride aligned DRAM factor to widen")
	}
	if identNames(m.other)[acc.Name] {
		return nil, notApplicable(PassVectorize, name, "second factor reads the accumulator")
	}
	c0, ok := foldConst(sh.init, c.env)
	if !ok || c0%lanes != 0 {
		return nil, notApplicable(PassVectorize, name, "loop start is not a lane-aligned constant")
	}
	d, ok := foldConst(sh.bound, c.env)
	if !ok || (d-c0)%lanes != 0 {
		return nil, notApplicable(PassVectorize, name, "trip count is not a multiple of the lane count")
	}
	m.c0, m.d = c0, d
	return m, nil
}

func isPointerParam(id *minic.Ident) bool {
	p, ok := id.Decl.(*minic.Param)
	return ok && p.Type.IsPointer()
}

// unitStrideAligned requires the subscript to be `base + v` with
// coefficient exactly 1 on the loop variable and every base term
// provably divisible by the lane count, so each widened load is aligned
// and stays inside one row.
func unitStrideAligned(idx minic.Expr, v string, lanes int64, env map[string]int64) bool {
	terms := flattenAdd(idx)
	seen := false
	for _, t := range terms {
		if ix, ok := t.(*minic.Ident); ok && ix.Name == v {
			if seen {
				return false // coefficient 2
			}
			seen = true
			continue
		}
		if identNames(t)[v] {
			return false // v appears scaled or nested
		}
		if !termDivisible(t, lanes, env) {
			return false
		}
	}
	return seen
}

// termDivisible proves one addend is a multiple of lanes: a constant
// multiple, or a product with a constant factor that is.
func termDivisible(t minic.Expr, lanes int64, env map[string]int64) bool {
	if v, ok := foldConst(t, env); ok {
		return v%lanes == 0
	}
	if b, ok := t.(*minic.Binary); ok && b.Op == minic.OpMul {
		if v, ok := foldConst(b.L, env); ok && v%lanes == 0 {
			return true
		}
		if v, ok := foldConst(b.R, env); ok && v%lanes == 0 {
			return true
		}
		return termDivisible(b.L, lanes, env) || termDivisible(b.R, lanes, env)
	}
	return false
}

// vectorize widens the unit-stride factor of a scalar reduction into a
// VECTOR load and accumulates the lanes in an unrolled inner loop: each
// DRAM request then fills a wider fraction of the bus (paper v3).
func vectorize(c *passCtx, st *minic.ForStmt) error {
	m, err := matchVectorize(c, st)
	if err != nil {
		return err
	}
	ld, err := c.loopDeps(PassVectorize, st)
	if err != nil {
		return err
	}
	// Vectorization executes `lanes` former iterations per new iteration
	// — exactly the reordering unrolling performs, so it shares the
	// Unroll verdict (and the advisor's narrow-accesses gate).
	if err := gate(PassVectorize, ld, ld.Legal.Unroll, ld.Legal.UnrollWhy); err != nil || c.readOnly {
		return err
	}

	lanes := int64(c.lanes)
	arr := m.vecIdx.Base.(*minic.Ident).Name
	vreg := fresh(c.used, "v"+arr)
	lane := fresh(c.used, "v")

	decl := &minic.DeclStmt{
		Name: vreg,
		Typ:  minic.TypeVector(int(lanes)),
		Init: &minic.VecLoad{Base: id(arr), Idx: cloneExpr(m.vecIdx.Idx[0], nil)},
	}
	elem := &minic.VecElem{Vec: id(vreg), Idx: id(lane)}
	shifted := cloneExpr(m.other, subst{m.sh.v: func() minic.Expr {
		return add(id(m.sh.v), id(lane))
	}})
	var prod minic.Expr
	if m.vecFirst {
		prod = bin(minic.OpMul, elem, shifted)
	} else {
		prod = bin(minic.OpMul, shifted, elem)
	}
	inner := stdFor(lane, lit(0), lit(lanes), 1, addAssign(id(m.acc.Name), prod))
	inner.Unroll = int(lanes)

	st.Body = block(decl, inner)
	st.Post = []minic.Stmt{postAdd(m.sh.v, lit(lanes))}
	return nil
}
