package transform

import (
	"strings"

	"paravis/internal/depend"
	"paravis/internal/minic"
)

// dbufMatch is a tile loop whose body splits into BRAM buffer
// declarations, a load phase that only writes those buffers, and a
// compute phase that only reads them — the structural precondition for
// ping-pong double buffering.
type dbufMatch struct {
	sh       *loopShape
	c0, dim  int64 // folded start and bound
	step     int64 // tile stride
	bufDecls []*minic.DeclStmt
	load     []minic.Stmt
	compute  []minic.Stmt
	bufs     map[string]bool
}

// rwState accumulates the free-variable reads and writes of a statement
// sequence. Names declared inside the sequence are phase-local and
// excluded from both sets.
type rwState struct {
	reads, writes map[string]bool
	local         map[string]bool
}

func newRW() *rwState {
	return &rwState{reads: map[string]bool{}, writes: map[string]bool{}, local: map[string]bool{}}
}

func (rw *rwState) read(name string) {
	if !rw.local[name] {
		rw.reads[name] = true
	}
}

func (rw *rwState) write(name string) {
	if !rw.local[name] {
		rw.writes[name] = true
	}
}

// lvalue records a store through an lvalue expression: the root array or
// scalar is written, subscripts are read, and compound assignments also
// read the target.
func (rw *rwState) lvalue(e minic.Expr, compound bool) {
	switch x := e.(type) {
	case *minic.Ident:
		rw.write(x.Name)
		if compound {
			rw.read(x.Name)
		}
	case *minic.Index:
		for _, i := range x.Idx {
			rw.node(i)
		}
		rw.lvalue(x.Base, compound)
	case *minic.VecElem:
		rw.node(x.Idx)
		rw.lvalue(x.Vec, compound)
	case *minic.VecLoad:
		rw.node(x.Idx)
		rw.lvalue(x.Base, compound)
	default:
		rw.node(e)
	}
}

// node classifies the accesses under one statement or expression. Only
// identifiers, stores and declarations mean something here; every other
// node just holds children.
func (rw *rwState) node(n minic.Node) {
	switch x := n.(type) {
	case *minic.Ident:
		rw.read(x.Name)
	case *minic.AssignExpr:
		rw.node(x.RHS)
		rw.lvalue(x.LHS, x.Op != nil)
	case *minic.IncDec:
		rw.lvalue(x.X, true)
	case *minic.DeclStmt:
		rw.node(x.Init)
		rw.local[x.Name] = true
	default:
		minic.EachChild(n, rw.node)
	}
}

// phaseRW computes the free reads and writes of a statement sequence.
func phaseRW(stmts []minic.Stmt) (reads, writes map[string]bool) {
	rw := newRW()
	for _, st := range stmts {
		rw.node(st)
	}
	return rw.reads, rw.writes
}

func intersects(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

func matchDoubleBuffer(c *passCtx, st *minic.ForStmt) (*dbufMatch, error) {
	name := minic.LoopName(st)
	fail := func(format string, args ...any) (*dbufMatch, error) {
		return nil, notApplicable(PassDoubleBuffer, name, format, args...)
	}
	sh := shapeOf(st)
	if sh == nil {
		return fail("loop header is not a plain counted loop")
	}
	step, ok := sh.stepConst(c.env)
	if !ok || step < 1 {
		return fail("loop stride does not fold to a positive constant")
	}
	c0, ok := foldConst(sh.init, c.env)
	if !ok {
		return fail("loop start does not fold to a constant")
	}
	dim, ok := foldConst(sh.bound, c.env)
	if !ok {
		return fail("loop bound does not fold against the launch parameters")
	}
	if (dim-c0)%step != 0 {
		return fail("iteration span %d is not a multiple of the tile stride %d", dim-c0, step)
	}
	if (dim-c0)/step < 2 {
		return fail("fewer than two tiles: nothing to overlap")
	}

	// Leading array declarations are the BRAM buffers to ping-pong.
	stmts := st.Body.Stmts
	var bufDecls []*minic.DeclStmt
	bufs := map[string]bool{}
	at := 0
	for ; at < len(stmts); at++ {
		d, ok := stmts[at].(*minic.DeclStmt)
		if !ok || d.Typ == nil || !d.Typ.IsArray() {
			break
		}
		if d.Init != nil {
			return fail("buffer %s has an initializer", d.Name)
		}
		bufDecls = append(bufDecls, d)
		bufs[d.Name] = true
	}
	if len(bufDecls) == 0 {
		return fail("loop body does not start with BRAM buffer declarations")
	}

	// Load phase: the maximal prefix whose free writes all land in the
	// buffers and that never reads a buffer.
	rest := stmts[at:]
	split := 0
	for ; split < len(rest); split++ {
		reads, writes := phaseRW(rest[split : split+1])
		ok := len(writes) > 0
		for w := range writes {
			if !bufs[w] {
				ok = false
			}
		}
		if !ok || intersects(reads, bufs) {
			break
		}
	}
	load, compute := rest[:split], rest[split:]
	if len(load) == 0 {
		return fail("no load phase: nothing writes the buffers before compute")
	}
	if len(compute) == 0 {
		return fail("no compute phase after the buffer loads")
	}
	loadReads, _ := phaseRW(load)
	computeReads, computeWrites := phaseRW(compute)
	if intersects(computeWrites, bufs) {
		return fail("compute phase writes a buffer: phases are not distinct")
	}
	if !intersects(computeReads, bufs) {
		return fail("compute phase never reads the buffers")
	}
	// The load sources must be stable across the overlap: nothing the
	// load phase reads (other than the tile index) may be written
	// anywhere in the loop.
	delete(loadReads, sh.v)
	_, bodyWrites := phaseRW(stmts)
	if intersects(loadReads, bodyWrites) {
		return fail("a load-phase input is written inside the loop")
	}
	return &dbufMatch{
		sh: sh, c0: c0, dim: dim, step: step,
		bufDecls: bufDecls, load: load, compute: compute, bufs: bufs,
	}, nil
}

// pingPongName derives the ping-pong buffer names: A_local → A0/A1.
func pingPongName(used map[string]bool, buf, suffix string) string {
	base := strings.TrimSuffix(buf, "_local")
	return fresh(used, base+suffix)
}

// doubleBuffer rewrites a matched tile loop so the next tile's loads
// overlap the current tile's compute (paper ladder v4 → v5): the buffers
// are duplicated into ping-pong pairs hoisted out of the loop, a
// prologue loads the first tile, and each (widened) iteration loads tile
// t+1 into one buffer set while computing tile t from the other.
func doubleBuffer(c *passCtx, st *minic.ForStmt) error {
	m, err := matchDoubleBuffer(c, st)
	if err != nil {
		return err
	}
	name := minic.LoopName(st)
	// Legality: overlapping iteration t+1's loads with iteration t's
	// compute needs the DoubleBuffer verdict proven on every loop of the
	// load phase (the loads being reordered across the tile boundary).
	for _, ls := range m.load {
		if _, ok := ls.(*minic.ForStmt); !ok {
			continue
		}
		for _, f := range forsUnder(ls) {
			ld, err := c.loopDeps(PassDoubleBuffer, f)
			if err != nil {
				return err
			}
			if err := gate(PassDoubleBuffer, ld, ld.Legal.DoubleBuffer, ld.Legal.DoubleBufferWhy); err != nil {
				return err
			}
		}
	}
	// Renaming the buffers discharges anti/output dependences between
	// the phases, but a proven loop-carried flow through a buffer means
	// compute reads values a *previous* iteration staged — duplication
	// would break that, so refuse.
	if ld := c.rep.Loop(name); ld != nil {
		for _, dep := range ld.Deps {
			if m.bufs[dep.Array] && dep.Carried && dep.Proven && dep.Kind == "flow" {
				return &NotProvenError{
					Pass: PassDoubleBuffer, Loop: name, Verdict: depend.Illegal,
					Why: "loop-carried flow dependence through buffer " + dep.Array,
				}
			}
		}
	}

	owner, at := ownerOf(c.fn, st)
	if owner == nil {
		return notApplicable(PassDoubleBuffer, name, "loop has no enclosing statement list")
	}
	if c.readOnly {
		return nil
	}

	// Ping-pong declarations: all 0-buffers, then all 1-buffers.
	ren0, ren1 := subst{}, subst{}
	var decls0, decls1 []minic.Stmt
	for _, d := range m.bufDecls {
		n0 := pingPongName(c.used, d.Name, "0")
		n1 := pingPongName(c.used, d.Name, "1")
		decls0 = append(decls0, &minic.DeclStmt{Name: n0, Typ: d.Typ})
		decls1 = append(decls1, &minic.DeclStmt{Name: n1, Typ: d.Typ})
		ren0 = ren0.with(d.Name, id(n0))
		ren1 = ren1.with(d.Name, id(n1))
	}

	k := m.sh.v
	s := m.step
	clonePhase := func(phase []minic.Stmt, ren subst, kRepl func() minic.Expr) []minic.Stmt {
		sub := subst{}
		for n, f := range ren {
			sub[n] = f
		}
		if kRepl != nil {
			sub[k] = kRepl
		}
		var out []minic.Stmt
		for _, ps := range phase {
			out = append(out, cloneStmt(ps, sub))
		}
		return out
	}

	// Prologue: stage the first tile into the 0-buffers.
	prologue := clonePhase(m.load, ren0, func() minic.Expr { return lit(m.c0) })

	// Tile offsets k+S and k+2*S (the latter kept unfolded so it prints
	// the way the hand-written kernel spells it).
	nextK := func() minic.Expr { return bin(minic.OpAdd, id(k), lit(s)) }
	nextK2 := func() minic.Expr {
		return bin(minic.OpAdd, id(k), bin(minic.OpMul, lit(2), lit(s)))
	}
	guard := func(off minic.Expr, body []minic.Stmt) minic.Stmt {
		return &minic.IfStmt{
			Cond: bin(minic.OpLt, off, cloneExpr(m.sh.bound, nil)),
			Then: &minic.BlockStmt{Stmts: body},
		}
	}

	// Widened loop: load t+1 into the 1-buffers, compute t from the
	// 0-buffers, prefetch t+2 into the 0-buffers, compute t+1 from the
	// 1-buffers. The guards keep odd tile counts correct.
	st.Post = []minic.Stmt{postAdd(k, bin(minic.OpMul, lit(2), lit(s)))}
	body := []minic.Stmt{guard(nextK(), clonePhase(m.load, ren1, nextK))}
	body = append(body, clonePhase(m.compute, ren0, nil)...)
	body = append(body, guard(nextK2(), clonePhase(m.load, ren0, nextK2)))
	body = append(body, guard(nextK(), clonePhase(m.compute, ren1, nextK)))
	st.Body = &minic.BlockStmt{Stmts: body}

	out := append([]minic.Stmt{}, decls0...)
	out = append(out, decls1...)
	out = append(out, prologue...)
	out = append(out, st)
	splice(owner, at, out...)
	return nil
}
