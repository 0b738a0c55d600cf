package absint

import (
	"sort"

	"paravis/internal/minic"
)

// state maps tracked variable ids to non-top abstract values. A missing
// key means top; unreachable blocks have no state at all.
type state map[int]Val

func cloneState(s state) state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// joinStates over-approximates both inputs: keys kept only where known
// on both sides.
func joinStates(a, b state) state {
	r := make(state)
	for k, va := range a {
		if vb, ok := b[k]; ok {
			j := va.join(vb)
			if !j.isTop() {
				r[k] = j
			}
		}
	}
	return r
}

func equalStates(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || !va.equal(vb) {
			return false
		}
	}
	return true
}

// analysis is the per-function solver context.
type analysis struct {
	res   *resolution
	g     *cfg
	env   map[string]int64
	th    []int64 // sorted widening thresholds
	delay int     // widening delay (head visits before widening kicks in)
	in    map[*block]state
	outN  map[*block]state // unconditional-edge out
	outT  map[*block]state // refined true-edge out
	outF  map[*block]state // refined false-edge out
	ok    bool             // solver converged within budget
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
		in:    map[*block]state{},
		outN:  map[*block]state{},
		outT:  map[*block]state{},
		outF:  map[*block]state{},
	}
	a.th = thresholds(fn, env, res.nt)
	return a
}

// thresholds collects the landmark constants widening snaps to: every
// integer literal in the function (and its off-by-one neighbors, so
// exclusive/inclusive bounds both land), array dimensions, parameter
// values, the thread count, and the usual suspects around zero.
func thresholds(fn *minic.FuncDecl, env map[string]int64, nt int) []int64 {
	set := map[int64]bool{-1: true, 0: true, 1: true, int64(nt): true, int64(nt) - 1: true}
	addC := func(v int64) {
		set[v] = true
		if v > -1<<62 {
			set[v-1] = true
		}
		if v < 1<<62 {
			set[v+1] = true
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
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// entryState seeds the function entry with known parameter values.
func (a *analysis) entryState() state {
	st := make(state)
	if a.env == nil {
		return st
	}
	for _, v := range a.res.vars {
		if v.isParam && v.tracked {
			if val, ok := a.env[v.name]; ok {
				st[v.id] = exactVal(val)
			}
		}
	}
	return st
}

// inFlow joins the edge-out states of bl's predecessors, skipping any
// listed in except. The second result is false when no predecessor has
// produced a state yet (the block is currently unreachable).
func (a *analysis) inFlow(bl *block, except *block) (state, bool) {
	if bl == a.g.entry {
		return a.entryState(), true
	}
	var acc state
	have := false
	for _, p := range bl.preds {
		if p == except {
			continue
		}
		var edges []state
		if p.cond != nil {
			if p.tsucc == bl {
				if s, ok := a.outT[p]; ok {
					edges = append(edges, s)
				}
			}
			if p.fsucc == bl {
				if s, ok := a.outF[p]; ok {
					edges = append(edges, s)
				}
			}
		} else if p.next == bl {
			if s, ok := a.outN[p]; ok {
				edges = append(edges, s)
			}
		}
		for _, s := range edges {
			if !have {
				acc, have = cloneState(s), true
			} else {
				acc = joinStates(acc, s)
			}
		}
	}
	return acc, have
}

// transfer runs bl's instructions over a copy of in and refreshes the
// per-edge out states.
func (a *analysis) transfer(bl *block, in state) {
	ev := &evaluator{a: a, st: cloneState(in), inRegion: bl.inRegion}
	for _, ins := range bl.instrs {
		ev.instr(ins)
	}
	out := ev.st
	if bl.cond == nil {
		a.outN[bl] = out
		return
	}
	if t, ok := refine(a, out, bl.cond, true, bl.inRegion); ok {
		a.outT[bl] = t
	} else {
		delete(a.outT, bl)
	}
	if f, ok := refine(a, out, bl.cond, false, bl.inRegion); ok {
		a.outF[bl] = f
	} else {
		delete(a.outF, bl)
	}
}

// solve iterates to a fixpoint with widening at loop heads, then runs
// two narrowing passes. Returns false if the pass budget ran out (the
// caller then publishes no facts).
func (a *analysis) solve() bool {
	visits := map[*block]int{}
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, bl := range a.g.rpo {
			newIn, reach := a.inFlow(bl, nil)
			if !reach {
				continue
			}
			old, had := a.in[bl]
			if had {
				merged := joinStates(old, newIn)
				if bl.isLoopHead {
					visits[bl]++
					if visits[bl] > a.delay {
						merged = widenStates(old, merged, a.th)
					}
				}
				if equalStates(old, merged) {
					continue
				}
				newIn = merged
			}
			a.in[bl] = newIn
			a.transfer(bl, newIn)
			changed = true
		}
		if !changed {
			// Narrowing: recompute every state once from scratch without
			// joining with the old value. Transfer functions are monotone
			// and the widened solution is a post-fixpoint, so this only
			// tightens. Two passes recover most threshold overshoot.
			for n := 0; n < 2; n++ {
				for _, bl := range a.g.rpo {
					newIn, reach := a.inFlow(bl, nil)
					if !reach {
						delete(a.in, bl)
						delete(a.outN, bl)
						delete(a.outT, bl)
						delete(a.outF, bl)
						continue
					}
					a.in[bl] = newIn
					a.transfer(bl, newIn)
				}
			}
			return true
		}
	}
	return false
}

// widenStates widens old toward next per variable. Keys that vanish
// from next (went to top) stay gone.
func widenStates(old, next state, th []int64) state {
	r := make(state, len(next))
	for k, nv := range next {
		if ov, ok := old[k]; ok {
			w := ov.widen(nv, th)
			if !w.isTop() {
				r[k] = w
			}
		}
		// Key absent in old: first time this variable is known here —
		// keep the new value; the join already covered both inputs.
		if _, ok := old[k]; !ok {
			if !nv.isTop() {
				r[k] = nv
			}
		}
	}
	return r
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
			if vr := ev.a.res.byDecl[st]; vr != nil && vr.tracked {
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
			if v.sharedMut {
				delete(ev.st, v.id)
			}
		}
		for i := range ins.ts.Maps {
			mc := &ins.ts.Maps[i]
			if mc.Dir == minic.MapTo {
				continue
			}
			if v := ev.a.res.byDecl[mc.Decl]; v != nil && v.tracked {
				delete(ev.st, v.id)
			}
		}
	}
}

func (ev *evaluator) set(v *variable, val Val) {
	if val.isTop() {
		delete(ev.st, v.id)
	} else {
		ev.st[v.id] = val
	}
}

func (ev *evaluator) get(v *variable) Val {
	if v == nil || !v.tracked {
		return topVal()
	}
	if v.sharedMut && ev.inRegion {
		// Another omp thread may have stored anything here.
		return topVal()
	}
	if val, ok := ev.st[v.id]; ok {
		return val
	}
	return topVal()
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
		return ev.get(ev.a.res.byDecl[x.Decl])
	case *minic.Call:
		for _, arg := range x.Args {
			ev.expr(arg)
		}
		switch x.Name {
		case "omp_get_thread_num":
			return intervalVal(Range(0, int64(ev.a.res.nt)-1))
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
			v := ev.a.res.byDecl[id.Decl]
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
	vals := make([]Val, len(x.Idx))
	for i, ix := range x.Idx {
		vals[i] = ev.expr(ix)
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
		v := ev.a.res.byDecl[lhs.Decl]
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
