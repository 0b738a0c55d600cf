package absint

import (
	"slices"

	"paravis/internal/interval"
	"paravis/internal/minic"
)

// state holds one abstract value per tracked variable (the integer
// scalars: nothing else ever carries a value), indexed by variable.slot,
// top where nothing is known. Whether a block or an edge has a state at
// all (it is reachable, the edge is not provably dead) is recorded
// beside the buffer, in edgeState.
type state []Val

// norm maps every representation of top to the canonical one, so a
// joined or widened slot reads like a never-assigned one.
func norm(v Val) Val {
	if v.isTop() {
		return topVal()
	}
	return v
}

// joinStates stores in dst the pointwise join of a and b: a slot is
// known only where it is known on both sides. dst may alias a or b. A
// slot that is the same value on both sides is its own join (every
// stored Val is reduced and normed) and is copied as is.
func joinStates(dst, a, b state) {
	for k, va := range a {
		switch vb := b[k]; {
		case va == vb:
			dst[k] = va
		case va.isTop() || vb.isTop():
			dst[k] = topVal()
		default:
			dst[k] = norm(va.join(vb))
		}
	}
}

// edgeState is a state buffer, allocated once with res.slots slots and
// overwritten in place, that is meaningful only while live: a block's in
// state is live once the block has been reached, an out state while the
// edge is not provably dead.
type edgeState struct {
	st   state
	live bool
}

// flow is the solver's record of one block: its in state and one out
// state per edge the block has — outN the unconditional edge of a jump
// block, outT and outF the refined edges of a branch block. An edge the
// block does not have has no buffer and is never live.
type flow struct {
	in, outN, outT, outF edgeState
	// dirty: an in-edge state moved since the block's last visit.
	dirty bool
	// reached: the last visit found a live in-edge.
	reached bool
}

// analysis is the per-function solver context.
type analysis struct {
	res   *resolution
	g     *cfg
	env   map[string]int64
	th    []int64 // sorted widening thresholds
	delay int     // widening delay (head visits before widening kicks in)
	flows []flow  // indexed by block.id
	// tmpIn, tmpOut and tmpEdge are the solver's scratch states; orTmp
	// holds one more per nesting depth of refineOr (orDepth deep now),
	// made on first use.
	tmpIn, tmpOut, tmpEdge state
	orTmp                  []state
	orDepth                int
	// passes counts the fixpoint sweeps of one solve (the two narrowing
	// sweeps not included).
	passes int
}

const (
	defaultWidenDelay = 2
	maxPasses         = 400
)

func newAnalysis(fn *minic.FuncDecl, res *resolution, env map[string]int64, delay int) *analysis {
	a := &analysis{
		res:   res,
		g:     buildCFG(fn),
		env:   env,
		delay: delay,
	}
	// One slab backs every state the solver touches: an in state per
	// block, an out state per edge it has, and the three scratch states.
	n := res.slots
	states := 3
	for _, bl := range a.g.blocks {
		states += 2
		if bl.cond != nil {
			states++
		}
	}
	slab := make([]Val, states*n)
	carve := func() state {
		st := state(slab[:n:n])
		slab = slab[n:]
		return st
	}
	edge := func() edgeState { return edgeState{st: carve()} }
	a.flows = make([]flow, len(a.g.blocks))
	for i, bl := range a.g.blocks {
		f := &a.flows[i]
		f.in = edge()
		if bl.cond != nil {
			f.outT, f.outF = edge(), edge()
		} else {
			f.outN = edge()
		}
	}
	a.tmpIn, a.tmpOut, a.tmpEdge = carve(), carve(), carve()
	a.th = thresholds(fn, env, res.nt)
	return a
}

// thresholds collects the landmark constants widening snaps to: every
// integer literal in the function (and its off-by-one neighbors, so
// exclusive/inclusive bounds both land), array dimensions, parameter
// values, the thread count, and the usual suspects around zero.
func thresholds(fn *minic.FuncDecl, env map[string]int64, nt int) []int64 {
	out := append(make([]int64, 0, 64), -1, 0, 1, int64(nt), int64(nt)-1)
	addC := func(v int64) {
		out = append(out, v)
		if v > -1<<62 {
			out = append(out, v-1)
		}
		if v < 1<<62 {
			out = append(out, v+1)
		}
	}
	for _, v := range env {
		addC(v)
	}
	minic.Inspect(fn.Body, func(n minic.Node) bool {
		switch x := n.(type) {
		case *minic.IntLit:
			addC(x.Value)
		case *minic.DeclStmt:
			for _, d := range x.Typ.Dims {
				addC(int64(d))
			}
		}
		return true
	})
	slices.Sort(out)
	return slices.Compact(out)
}

// entryState seeds dst with the function entry: known parameter values,
// top everywhere else.
func (a *analysis) entryState(dst state) {
	for k := range dst {
		dst[k] = topVal()
	}
	if a.env == nil {
		return
	}
	for _, v := range a.res.vars {
		if v.isParam && v.tracked {
			if val, ok := a.env[v.name]; ok {
				dst[v.slot] = exactVal(val)
			}
		}
	}
}

// inFlow stores in dst the join of the edge-out states of bl's
// predecessors, skipping any listed in except. It returns false, leaving
// dst unspecified, when no predecessor has produced a state yet (the
// block is currently unreachable).
func (a *analysis) inFlow(dst state, bl *block, except *block) bool {
	if bl == a.g.entry {
		a.entryState(dst)
		return true
	}
	have := false
	merge := func(e *edgeState) {
		switch {
		case !e.live:
		case !have:
			copy(dst, e.st)
			have = true
		default:
			joinStates(dst, dst, e.st)
		}
	}
	for _, p := range bl.preds {
		if p == except {
			continue
		}
		f := &a.flows[p.id]
		if p.cond != nil {
			if p.tsucc == bl {
				merge(&f.outT)
			}
			if p.fsucc == bl {
				merge(&f.outF)
			}
		} else if p.next == bl {
			merge(&f.outN)
		}
	}
	return have
}

// transfer runs bl's instructions over a copy of its in state and
// refreshes the per-edge out states.
func (a *analysis) transfer(bl *block) {
	f := &a.flows[bl.id]
	out := a.tmpOut
	copy(out, f.in.st)
	ev := &evaluator{a: a, st: out, inRegion: bl.inRegion}
	for _, ins := range bl.instrs {
		ev.instr(ins)
	}
	if bl.cond == nil {
		a.setEdge(&f.outN, out, true, bl.next)
		return
	}
	a.branch(bl, out)
}

// setEdge publishes one out-edge state (live false: the edge is dead)
// and marks the successor for a revisit when the edge moved. It compares
// and copies in one pass.
func (a *analysis) setEdge(e *edgeState, st state, live bool, succ *block) {
	moved := live != e.live
	e.live = live
	if live {
		for k, v := range st {
			if !e.st[k].equal(v) {
				e.st[k] = v
				moved = true
			}
		}
	}
	if moved && succ != nil {
		a.flows[succ.id].dirty = true
	}
}

// solve iterates to a fixpoint with widening at loop heads, then runs
// two narrowing passes. Returns false if the pass budget ran out (the
// caller then publishes no facts).
//
// Passes sweep the blocks in reverse postorder, but a block is visited
// only when an in-edge state moved since its last visit. A skipped visit
// would have been a no-op: with the predecessors' outs unchanged the
// joined in-flow is what the last visit already folded into the in state,
// so join(in, in-flow) = in and the visit's merge finds nothing moved.
// Its one side effect, the loop-head visit count that decides on which
// pass widening starts, is kept.
func (a *analysis) solve() bool {
	visits := make([]int, len(a.g.blocks))
	for i := range a.flows {
		a.flows[i].dirty = true
	}
	in := a.tmpIn
	for pass := 0; pass < maxPasses; pass++ {
		a.passes++
		changed := false
		for _, bl := range a.g.rpo {
			f := &a.flows[bl.id]
			if !f.dirty {
				if bl.isLoopHead && f.reached {
					visits[bl.id]++
				}
				continue
			}
			f.dirty = false
			f.reached = a.inFlow(in, bl, nil)
			if !f.reached {
				continue
			}
			if f.in.live {
				widen := false
				if bl.isLoopHead {
					visits[bl.id]++
					widen = visits[bl.id] > a.delay
				}
				if !a.merge(f.in.st, in, widen) {
					continue
				}
			} else {
				copy(f.in.st, in)
				f.in.live = true
			}
			a.transfer(bl)
			changed = true
		}
		if !changed {
			// Narrowing: recompute every state once from scratch without
			// joining with the old value. Transfer functions are monotone
			// and the widened solution is a post-fixpoint, so this only
			// tightens. Two passes recover most threshold overshoot.
			for n := 0; n < 2; n++ {
				for _, bl := range a.g.rpo {
					f := &a.flows[bl.id]
					f.in.live = a.inFlow(f.in.st, bl, nil)
					if !f.in.live {
						f.outN.live, f.outT.live, f.outF.live = false, false, false
						continue
					}
					a.transfer(bl)
				}
			}
			return true
		}
	}
	return false
}

// merge folds the in-flow next into a block's in state old, in one pass
// per slot: join, widen (at a loop head past its delay) and compare. It
// writes only the slots that moved and reports whether any did. A slot
// whose in-flow is the old value itself is skipped: every stored Val is
// reduced and normed, so join(x, x) and widen(x, x) are x.
func (a *analysis) merge(old, next state, widen bool) bool {
	moved := false
	for k, nv := range next {
		ov := old[k]
		if nv == ov {
			continue
		}
		if ov.isTop() || nv.isTop() {
			nv = topVal()
		} else if nv = norm(ov.join(nv)); widen && !nv.isTop() {
			nv = norm(ov.widen(nv, a.th))
		}
		if !ov.equal(nv) {
			old[k] = nv
			moved = true
		}
	}
	return moved
}

// evaluator walks statements/expressions over one mutable state. The
// optional collector records facts (used after the fixpoint); during
// solving it is nil.
type evaluator struct {
	a        *analysis
	st       state
	inRegion bool
	col      *collector
}

func (ev *evaluator) instr(ins instr) {
	switch ins.kind {
	case ikStmt:
		switch st := ins.s.(type) {
		case *minic.DeclStmt:
			var v Val
			if st.Init != nil {
				v = ev.expr(st.Init)
			} else {
				v = topVal()
			}
			if vr := ev.a.res.byDecl(st); vr != nil && vr.tracked {
				ev.set(vr, v)
			}
		case *minic.ExprStmt:
			ev.expr(st.X)
		case *minic.ReturnStmt:
			if st.X != nil {
				ev.expr(st.X)
			}
		}
	case ikTargetEnter:
		for i := range ins.ts.Maps {
			mc := &ins.ts.Maps[i]
			low, length := topVal(), topVal()
			if mc.Low != nil {
				low = ev.expr(mc.Low)
			}
			if mc.Len != nil {
				length = ev.expr(mc.Len)
			}
			if ev.col != nil {
				ev.col.mapWindow(mc, low, length)
			}
		}
	case ikTargetExit:
		// The region ran on NT threads: anything it may have written to
		// outer scope is unknown afterwards, as are from-mapped scalars.
		for _, v := range ev.a.res.vars {
			if v.sharedMut && v.tracked {
				ev.st[v.slot] = topVal()
			}
		}
		for i := range ins.ts.Maps {
			mc := &ins.ts.Maps[i]
			if mc.Dir == minic.MapTo {
				continue
			}
			if v := ev.a.res.byDecl(mc.Decl); v != nil && v.tracked {
				ev.st[v.slot] = topVal()
			}
		}
	}
}

func (ev *evaluator) set(v *variable, val Val) { ev.st[v.slot] = norm(val) }

func (ev *evaluator) get(v *variable) Val {
	if v == nil || !v.tracked {
		return topVal()
	}
	if v.sharedMut && ev.inRegion {
		// Another omp thread may have stored anything here.
		return topVal()
	}
	return ev.st[v.slot]
}

func isIntExpr(e minic.Expr) bool {
	t := e.Type()
	return t != nil && t.IsScalar() && t.Basic == minic.Int
}

// expr abstractly evaluates e, applying assignment/increment side
// effects to the state and recording facts through the collector.
func (ev *evaluator) expr(e minic.Expr) Val {
	switch x := e.(type) {
	case nil:
		return topVal()
	case *minic.IntLit:
		return exactVal(x.Value)
	case *minic.FloatLit:
		return topVal()
	case *minic.Ident:
		return ev.get(ev.a.res.byDecl(x.Decl))
	case *minic.Call:
		for _, arg := range x.Args {
			ev.expr(arg)
		}
		switch x.Name {
		case "omp_get_thread_num":
			return intervalVal(interval.Range(0, int64(ev.a.res.nt)-1))
		case "omp_get_num_threads":
			return exactVal(int64(ev.a.res.nt))
		}
		return topVal()
	case *minic.Unary:
		v := ev.expr(x.X)
		if x.Neg {
			if !isIntExpr(x) {
				return topVal()
			}
			return v.neg()
		}
		return boolVal(-v.truth())
	case *minic.Binary:
		return ev.binary(x)
	case *minic.Cond:
		c := ev.expr(x.C)
		av := ev.expr(x.A)
		bv := ev.expr(x.B)
		if !isIntExpr(x) {
			return topVal()
		}
		switch c.truth() {
		case +1:
			return av
		case -1:
			return bv
		}
		return av.join(bv)
	case *minic.Index:
		ev.index(x, false)
		return topVal()
	case *minic.VecElem:
		iv := ev.expr(x.Idx)
		if _, ok := x.Vec.(*minic.Ident); !ok {
			ev.expr(x.Vec)
		}
		if ev.col != nil {
			ev.col.vecElem(x, iv)
		}
		return topVal()
	case *minic.VecLoad:
		iv := ev.expr(x.Idx)
		if _, ok := x.Base.(*minic.Ident); !ok {
			ev.expr(x.Base)
		}
		if ev.col != nil {
			ev.col.vecAccess(x, iv, false)
		}
		return topVal()
	case *minic.AssignExpr:
		return ev.assign(x)
	case *minic.IncDec:
		if ix, ok := x.X.(*minic.Index); ok {
			ev.index(ix, true)
			return topVal()
		}
		if id, ok := x.X.(*minic.Ident); ok {
			v := ev.a.res.byDecl(id.Decl)
			cur := ev.get(v)
			d := exactVal(1)
			if !x.Inc {
				d = exactVal(-1)
			}
			nv := cur.add(d)
			if v != nil && v.tracked {
				ev.set(v, nv)
			}
			return nv
		}
		ev.expr(x.X)
		return topVal()
	case *minic.Cast:
		ev.expr(x.X)
		return topVal()
	case *minic.AddrOf:
		ev.expr(x.X)
		return topVal()
	case *minic.InitList:
		for _, el := range x.Elems {
			ev.expr(el)
		}
		return topVal()
	}
	return topVal()
}

// index evaluates an Index node's subscripts and records the access.
func (ev *evaluator) index(x *minic.Index, write bool) {
	var buf [4]Val // the collector copies what it keeps
	vals := buf[:0]
	for _, ix := range x.Idx {
		if v := ev.expr(ix); ev.col != nil {
			vals = append(vals, v)
		}
	}
	if _, ok := x.Base.(*minic.Ident); !ok {
		ev.expr(x.Base)
	}
	if ev.col != nil {
		ev.col.access(x, vals, write)
	}
}

func (ev *evaluator) binary(x *minic.Binary) Val {
	l := ev.expr(x.L)
	// Short-circuit operators still evaluate both sides abstractly (the
	// right side has no tracked side effects in condition position).
	r := ev.expr(x.R)
	intOp := isIntExpr(x.L) && isIntExpr(x.R)
	switch x.Op {
	case minic.OpAdd, minic.OpSub, minic.OpMul, minic.OpDiv, minic.OpRem:
		if !intOp {
			if (x.Op == minic.OpDiv || x.Op == minic.OpRem) && ev.col != nil && isIntExpr(x.R) {
				ev.col.division(x, r)
			}
			return topVal()
		}
		switch x.Op {
		case minic.OpAdd:
			return l.add(r)
		case minic.OpSub:
			return l.sub(r)
		case minic.OpMul:
			return l.mul(r)
		case minic.OpDiv:
			if ev.col != nil {
				ev.col.division(x, r)
			}
			return l.div(r)
		default:
			if ev.col != nil {
				ev.col.division(x, r)
			}
			return l.rem(r)
		}
	case minic.OpLt:
		if !intOp {
			return boolVal(0)
		}
		return cmpLt(l, r)
	case minic.OpLe:
		if !intOp {
			return boolVal(0)
		}
		return cmpLe(l, r)
	case minic.OpGt:
		if !intOp {
			return boolVal(0)
		}
		return cmpLt(r, l)
	case minic.OpGe:
		if !intOp {
			return boolVal(0)
		}
		return cmpLe(r, l)
	case minic.OpEq:
		if !intOp {
			return boolVal(0)
		}
		return cmpEq(l, r)
	case minic.OpNe:
		if !intOp {
			return boolVal(0)
		}
		eq := cmpEq(l, r)
		return boolVal(-eq.truth())
	case minic.OpLAnd:
		lt, rt := l.truth(), r.truth()
		switch {
		case lt < 0 || rt < 0:
			return exactVal(0)
		case lt > 0 && rt > 0:
			return exactVal(1)
		}
		return boolVal(0)
	case minic.OpLOr:
		lt, rt := l.truth(), r.truth()
		switch {
		case lt > 0 || rt > 0:
			return exactVal(1)
		case lt < 0 && rt < 0:
			return exactVal(0)
		}
		return boolVal(0)
	}
	return topVal()
}

func (ev *evaluator) assign(x *minic.AssignExpr) Val {
	rhs := ev.expr(x.RHS)
	switch lhs := x.LHS.(type) {
	case *minic.Ident:
		v := ev.a.res.byDecl(lhs.Decl)
		nv := rhs
		if x.Op != nil {
			cur := ev.get(v)
			nv = applyBin(*x.Op, cur, rhs, isIntExpr(lhs) && isIntExpr(x.RHS))
		}
		if !isIntExpr(lhs) {
			nv = topVal()
		}
		if v != nil && v.tracked {
			ev.set(v, nv)
		}
		return nv
	case *minic.Index:
		ev.index(lhs, true)
		return topVal()
	case *minic.VecElem:
		iv := ev.expr(lhs.Idx)
		if _, ok := lhs.Vec.(*minic.Ident); !ok {
			ev.expr(lhs.Vec)
		}
		if ev.col != nil {
			ev.col.vecElem(lhs, iv)
		}
		return topVal()
	case *minic.VecLoad:
		iv := ev.expr(lhs.Idx)
		if _, ok := lhs.Base.(*minic.Ident); !ok {
			ev.expr(lhs.Base)
		}
		if ev.col != nil {
			ev.col.vecAccess(lhs, iv, true)
		}
		return topVal()
	default:
		ev.expr(lhs)
		return topVal()
	}
}

func applyBin(op minic.BinOp, l, r Val, intOp bool) Val {
	if !intOp {
		return topVal()
	}
	switch op {
	case minic.OpAdd:
		return l.add(r)
	case minic.OpSub:
		return l.sub(r)
	case minic.OpMul:
		return l.mul(r)
	case minic.OpDiv:
		return l.div(r)
	case minic.OpRem:
		return l.rem(r)
	}
	return topVal()
}
