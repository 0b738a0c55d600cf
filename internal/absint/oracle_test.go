package absint

// The oracle: the solver as it stood before each visit's state work was
// fused into one pass, kept verbatim apart from the oracle prefix on its
// names and the pass counter in oracleSolve. It iterates over the same
// analysis (CFG, thresholds, slab) as solve, so the two can be compared
// block by block. Never edit it to make a solver change pass.

import (
	"bytes"
	"fmt"
	"sort"

	"paravis/internal/interval"
	"paravis/internal/minic"
)

func cloneState(s state) state {
	return append(state(nil), s...)
}

func oracleJoinStates(dst, a, b state) {
	for k, va := range a {
		if vb := b[k]; va.isTop() || vb.isTop() {
			dst[k] = topVal()
		} else {
			dst[k] = norm(va.join(vb))
		}
	}
}

func oracleEqualStates(a, b state) bool {
	for k, va := range a {
		if !va.equal(b[k]) {
			return false
		}
	}
	return true
}

func (a *analysis) oracleInFlow(dst state, bl *block, except *block) bool {
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
			oracleJoinStates(dst, dst, e.st)
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

func (a *analysis) oracleTransfer(bl *block) {
	f := &a.flows[bl.id]
	out := a.tmpOut
	copy(out, f.in.st)
	ev := &evaluator{a: a, st: out, inRegion: bl.inRegion}
	for _, ins := range bl.instrs {
		ev.instr(ins)
	}
	if bl.cond == nil {
		a.oracleSetEdge(&f.outN, out, true, bl.next)
		return
	}
	ok := oracleRefine(a, a.tmpEdge, out, bl.cond, true, bl.inRegion)
	a.oracleSetEdge(&f.outT, a.tmpEdge, ok, bl.tsucc)
	ok = oracleRefine(a, a.tmpEdge, out, bl.cond, false, bl.inRegion)
	a.oracleSetEdge(&f.outF, a.tmpEdge, ok, bl.fsucc)
}

func (a *analysis) oracleSetEdge(e *edgeState, st state, live bool, succ *block) {
	if live == e.live && (!live || oracleEqualStates(e.st, st)) {
		return
	}
	e.live = live
	if live {
		copy(e.st, st)
	}
	if succ != nil {
		a.flows[succ.id].dirty = true
	}
}

func (a *analysis) oracleSolve() bool {
	visits := make([]int, len(a.g.blocks))
	for i := range a.flows {
		a.flows[i].dirty = true
	}
	in := a.tmpIn
	for pass := 0; pass < maxPasses; pass++ {
		a.passes++ // the one line the parent did not have
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
			f.reached = a.oracleInFlow(in, bl, nil)
			if !f.reached {
				continue
			}
			if f.in.live {
				oracleJoinStates(in, f.in.st, in)
				if bl.isLoopHead {
					visits[bl.id]++
					if visits[bl.id] > a.delay {
						oracleWidenStates(in, f.in.st, in, a.th)
					}
				}
				if oracleEqualStates(f.in.st, in) {
					continue
				}
			}
			copy(f.in.st, in)
			f.in.live = true
			a.oracleTransfer(bl)
			changed = true
		}
		if !changed {
			for n := 0; n < 2; n++ {
				for _, bl := range a.g.rpo {
					f := &a.flows[bl.id]
					f.in.live = a.oracleInFlow(f.in.st, bl, nil)
					if !f.in.live {
						f.outN.live, f.outT.live, f.outF.live = false, false, false
						continue
					}
					a.oracleTransfer(bl)
				}
			}
			return true
		}
	}
	return false
}

func oracleWidenStates(dst, old, next state, th []int64) {
	for k, nv := range next {
		if ov := old[k]; !nv.isTop() && !ov.isTop() {
			nv = norm(ov.widen(nv, th))
		}
		dst[k] = nv
	}
}

func oracleRefine(a *analysis, st, out state, cond minic.Expr, sense bool, inRegion bool) bool {
	copy(st, out)
	if impure(cond) {
		ev := &evaluator{a: a, st: st, inRegion: inRegion}
		t := ev.expr(cond).truth()
		return !((sense && t < 0) || (!sense && t > 0))
	}
	return oracleRefineInto(a, st, cond, sense, inRegion)
}

func oracleRefineInto(a *analysis, st state, cond minic.Expr, sense bool, inRegion bool) bool {
	switch x := cond.(type) {
	case *minic.Unary:
		if !x.Neg { // logical not
			return oracleRefineInto(a, st, x.X, !sense, inRegion)
		}
	case *minic.Binary:
		switch x.Op {
		case minic.OpLAnd:
			if sense {
				return oracleRefineInto(a, st, x.L, true, inRegion) &&
					oracleRefineInto(a, st, x.R, true, inRegion)
			}
			return oracleRefineOr(a, st, x.L, false, x.R, false, inRegion)
		case minic.OpLOr:
			if !sense {
				return oracleRefineInto(a, st, x.L, false, inRegion) &&
					oracleRefineInto(a, st, x.R, false, inRegion)
			}
			return oracleRefineOr(a, st, x.L, true, x.R, true, inRegion)
		case minic.OpLt, minic.OpLe, minic.OpGt, minic.OpGe, minic.OpEq, minic.OpNe:
			return oracleRefineCmp(a, st, x, sense, inRegion)
		}
	case *minic.Ident:
		v := a.res.byDecl[x.Decl]
		if v == nil || !v.tracked || (v.sharedMut && inRegion) {
			return true
		}
		cur := st[v.slot]
		var nv Val
		if sense {
			nv = excludeZero(cur)
		} else {
			nv = cur.meet(exactVal(0))
		}
		if nv.isBottom() {
			return false
		}
		st[v.slot] = norm(nv)
		return true
	}
	ev := &evaluator{a: a, st: cloneState(st), inRegion: inRegion}
	t := ev.expr(cond).truth()
	if (sense && t < 0) || (!sense && t > 0) {
		return false
	}
	return true
}

func oracleRefineOr(a *analysis, st state, l minic.Expr, senseL bool, r minic.Expr, senseR bool, inRegion bool) bool {
	ls := cloneState(st)
	rs := cloneState(st)
	lok := oracleRefineInto(a, ls, l, senseL, inRegion)
	rok := oracleRefineInto(a, rs, r, senseR, inRegion)
	switch {
	case lok && rok:
		oracleJoinStates(st, ls, rs)
		return true
	case lok:
		copy(st, ls)
		return true
	case rok:
		copy(st, rs)
		return true
	}
	return false
}

func oracleRefineCmp(a *analysis, st state, x *minic.Binary, sense bool, inRegion bool) bool {
	if !isIntExpr(x.L) || !isIntExpr(x.R) {
		return true
	}
	op := x.Op
	l, r := x.L, x.R
	switch op {
	case minic.OpGt:
		op, l, r = minic.OpLt, r, l
	case minic.OpGe:
		op, l, r = minic.OpLe, r, l
	}
	if !sense {
		switch op {
		case minic.OpLt: // !(l < r)  ==  r <= l
			op, l, r = minic.OpLe, r, l
		case minic.OpLe: // !(l <= r) ==  r < l
			op, l, r = minic.OpLt, r, l
		case minic.OpEq:
			op = minic.OpNe
		case minic.OpNe:
			op = minic.OpEq
		}
	}

	ev := &evaluator{a: a, st: st, inRegion: inRegion}
	lv := ev.expr(l)
	rv := ev.expr(r)
	if lv.isBottom() || rv.isBottom() {
		return false
	}

	lvar := refinable(a, l, inRegion)
	rvar := refinable(a, r, inRegion)

	apply := func(v *variable, nv Val) bool {
		if nv.isBottom() {
			return false
		}
		if v != nil {
			st[v.slot] = norm(nv)
		}
		return true
	}

	switch op {
	case minic.OpLt: // l < r
		var nl, nr Val = lv, rv
		if rv.I.HasHi && rv.I.Hi > -1<<62 {
			nl = lv.meet(intervalVal(interval.AtMost(rv.I.Hi - 1)))
		}
		if lv.I.HasLo && lv.I.Lo < 1<<62 {
			nr = rv.meet(intervalVal(interval.AtLeast(lv.I.Lo + 1)))
		}
		return apply(lvar, nl) && apply(rvar, nr)
	case minic.OpLe: // l <= r
		var nl, nr Val = lv, rv
		if rv.I.HasHi {
			nl = lv.meet(intervalVal(interval.AtMost(rv.I.Hi)))
		}
		if lv.I.HasLo {
			nr = rv.meet(intervalVal(interval.AtLeast(lv.I.Lo)))
		}
		return apply(lvar, nl) && apply(rvar, nr)
	case minic.OpEq:
		m := lv.meet(rv)
		return apply(lvar, m) && apply(rvar, m)
	case minic.OpNe:
		nl, nr := trimNe(lv, rv), trimNe(rv, lv)
		return apply(lvar, nl) && apply(rvar, nr)
	}
	return true
}

// ImpureCondSrc has branch conditions with side effects beside a
// refinable identifier (n < m++, an != whose left side assigns, j++ < n):
// the solver must apply their effects and narrow nothing.
const ImpureCondSrc = `
void f(int n) {
  float a[8];
  int m = 4;
  if (n < m++) {
    a[n] = 1.0;
  }
  for (int i = 0; i < 8 && (m = m - 1) != n; i++) {
    a[i] = 2.0;
  }
  for (int j = 0; j++ < n;) {
    a[j] = 3.0;
  }
}
`

// CompareWithOracle analyses fn with the solver and with the oracle under
// opts and reports the first difference: the pass count, a block's in
// state or reachability, the state or liveness of an edge the block has,
// or the published facts as RenderResult prints them.
func CompareWithOracle(fn *minic.FuncDecl, opts Options) error {
	if fn == nil || fn.Body == nil {
		return nil
	}
	res, got := analyze(fn, opts)
	want := newAnalysis(fn, resolveFn(fn), opts.Env, widenDelay(opts.WidenDelay))
	wantRes := newResult(want.res.nt)
	if want.oracleSolve() {
		want.publish(wantRes)
	}
	if res.OK != wantRes.OK || got.passes != want.passes {
		return fmt.Errorf("%s: ok=%t after %d passes, oracle ok=%t after %d",
			fn.Name, res.OK, got.passes, wantRes.OK, want.passes)
	}
	type pair struct {
		name string
		g, w *edgeState
	}
	for i, bl := range got.g.blocks {
		g, w := &got.flows[i], &want.flows[i]
		edges := []pair{{"in", &g.in, &w.in}, {"outN", &g.outN, &w.outN}}
		if bl.cond != nil {
			edges = []pair{edges[0], {"outT", &g.outT, &w.outT}, {"outF", &g.outF, &w.outF}}
		}
		for _, e := range edges {
			if e.g.live != e.w.live {
				return fmt.Errorf("%s: block %d %s live=%t, oracle %t", fn.Name, bl.id, e.name, e.g.live, e.w.live)
			}
			if !e.g.live {
				continue
			}
			for k, wv := range e.w.st {
				if gv := e.g.st[k]; !gv.equal(wv) {
					return fmt.Errorf("%s: block %d %s slot %d = %+v, oracle %+v", fn.Name, bl.id, e.name, k, gv, wv)
				}
			}
		}
	}
	var gb, wb bytes.Buffer
	RenderResult(&gb, fn.Name, res)
	RenderResult(&wb, fn.Name, wantRes)
	if gb.String() != wb.String() {
		return fmt.Errorf("%s: published facts differ:\n%s\noracle:\n%s", fn.Name, gb.String(), wb.String())
	}
	return nil
}

// RenderResult prints every fact r publishes in a stable order: the
// format of the golden files and of the oracle comparison.
func RenderResult(w *bytes.Buffer, title string, r *Result) {
	fmt.Fprintf(w, "-- %s: ok=%t nt=%d\n", title, r.OK, r.NT)
	loops := make([]*LoopFact, 0, len(r.Loops))
	for _, lf := range r.Loops {
		loops = append(loops, lf)
	}
	sort.Slice(loops, func(i, j int) bool {
		a, b := loops[i].Pos, loops[j].Pos
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	for _, lf := range loops {
		fmt.Fprintf(w, "loop %s reachable=%t body=%t trips=%s\n", lf.Name, lf.Reachable, lf.BodyReachable, lf.Trips)
	}
	for _, f := range r.Accesses {
		fmt.Fprintf(w, "access %d:%d %s write=%t %s baddim=%d dimsize=%d index=%s elem=%s width=%d elemok=%t\n",
			f.Pos.Line, f.Pos.Col, f.Array, f.Write, f.Verdict, f.BadDim, f.DimSize, f.Index, f.Elem, f.Width, f.ElemOK)
	}
	for _, d := range r.Divs {
		fmt.Fprintf(w, "div %d:%d rem=%t divisor=%s zero=%t mayzero=%t\n",
			d.Pos.Line, d.Pos.Col, d.IsRem, d.Divisor, d.ProvenZero, d.MayZero)
	}
	for _, c := range r.Conds {
		fmt.Fprintf(w, "cond %d:%d loop=%t true=%t false=%t\n", c.Pos.Line, c.Pos.Col, c.IsLoop, c.AlwaysTrue, c.AlwaysFalse)
	}
}
