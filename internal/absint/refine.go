package absint

import (
	"paravis/internal/interval"
	"paravis/internal/minic"
)

// branch publishes the two edges of a branch block from out, the state
// after its instructions. The refined states only narrow identifier
// values — everything else stays as computed by the transfer function —
// so they always soundly over-approximate the concrete edge states; an
// edge whose refined state is bottom is dead. Whether the condition has
// side effects was decided once, when the CFG was wired (block.impure).
func (a *analysis) branch(bl *block, out state) {
	f := &a.flows[bl.id]
	st := a.tmpEdge
	copy(st, out)
	if bl.impure {
		// A side-effecting condition (rare): apply its effects once, keep
		// only the truth-contradiction check, skip narrowing. Both edges
		// leave with the same state.
		ev := evaluator{a: a, st: st, inRegion: bl.inRegion}
		t := ev.expr(bl.cond).truth()
		a.setEdge(&f.outT, st, t >= 0, bl.tsucc)
		a.setEdge(&f.outF, st, t <= 0, bl.fsucc)
		return
	}
	ok := refineInto(a, st, bl.cond, true, bl.inRegion)
	a.setEdge(&f.outT, st, ok, bl.tsucc)
	copy(st, out)
	ok = refineInto(a, st, bl.cond, false, bl.inRegion)
	a.setEdge(&f.outF, st, ok, bl.fsucc)
}

// impure reports whether evaluating e could change tracked state.
func impure(e minic.Expr) bool {
	found := false
	minic.Inspect(e, func(n minic.Node) bool {
		switch n.(type) {
		case *minic.AssignExpr, *minic.IncDec:
			found = true
		}
		return !found
	})
	return found
}

// refineInto narrows st in place for taking the pure condition cond with
// the given truth sense; false means contradiction (dead edge), after
// which st is unspecified.
func refineInto(a *analysis, st state, cond minic.Expr, sense bool, inRegion bool) bool {
	switch x := cond.(type) {
	case *minic.Unary:
		if !x.Neg { // logical not
			return refineInto(a, st, x.X, !sense, inRegion)
		}
	case *minic.Binary:
		switch x.Op {
		case minic.OpLAnd:
			if sense {
				return refineInto(a, st, x.L, true, inRegion) &&
					refineInto(a, st, x.R, true, inRegion)
			}
			return refineOr(a, st, x.L, false, x.R, false, inRegion)
		case minic.OpLOr:
			if !sense {
				return refineInto(a, st, x.L, false, inRegion) &&
					refineInto(a, st, x.R, false, inRegion)
			}
			return refineOr(a, st, x.L, true, x.R, true, inRegion)
		case minic.OpLt, minic.OpLe, minic.OpGt, minic.OpGe, minic.OpEq, minic.OpNe:
			return refineCmp(a, st, x, sense, inRegion)
		}
	case *minic.Ident:
		// `if (x)` — true excludes 0, false pins to 0.
		v := a.res.byDecl(x.Decl)
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
	// Generic fallback: evaluate the condition in the current state (it is
	// pure, so st is only read) and check for a truth contradiction.
	ev := evaluator{a: a, st: st, inRegion: inRegion}
	t := ev.expr(cond).truth()
	return !((sense && t < 0) || (!sense && t > 0))
}

// refineOr refines along "L(with senseL) OR R(with senseR)": the result
// must cover both disjuncts, so each is refined independently and the
// surviving states joined. Both dead means the edge is dead. L is refined
// in the solver's scratch state for this nesting depth, R in st itself.
func refineOr(a *analysis, st state, l minic.Expr, senseL bool, r minic.Expr, senseR bool, inRegion bool) bool {
	if a.orDepth == len(a.orTmp) {
		a.orTmp = append(a.orTmp, make(state, len(st)))
	}
	ls := a.orTmp[a.orDepth]
	a.orDepth++
	copy(ls, st)
	lok := refineInto(a, ls, l, senseL, inRegion)
	rok := refineInto(a, st, r, senseR, inRegion)
	a.orDepth--
	switch {
	case lok && rok:
		joinStates(st, ls, st)
	case lok:
		copy(st, ls)
	case !rok:
		return false
	}
	return true
}

// excludeZero trims a zero endpoint off the interval (a full != split
// would need disjunctions; endpoint trimming is the sound fragment).
func excludeZero(v Val) Val {
	if !v.C.member(0) {
		return v
	}
	if v.I.HasLo && v.I.Lo == 0 {
		return v.meet(intervalVal(interval.AtLeast(1)))
	}
	if v.I.HasHi && v.I.Hi == 0 {
		return v.meet(intervalVal(interval.AtMost(-1)))
	}
	if c, ok := v.constVal(); ok && c == 0 {
		return bottomVal()
	}
	return v
}

// refineCmp narrows identifier operands of a comparison. Both sides are
// evaluated first; then each side that is a refinable identifier is met
// with the bound implied by the other side's value.
func refineCmp(a *analysis, st state, x *minic.Binary, sense bool, inRegion bool) bool {
	if !isIntExpr(x.L) || !isIntExpr(x.R) {
		return true
	}
	// Normalize to op in {<, <=, ==, !=} with the stated sense.
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

	ev := evaluator{a: a, st: st, inRegion: inRegion}
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

// refinable returns the tracked variable behind e when its state entry
// may be narrowed, else nil.
func refinable(a *analysis, e minic.Expr, inRegion bool) *variable {
	id, ok := e.(*minic.Ident)
	if !ok {
		return nil
	}
	v := a.res.byDecl(id.Decl)
	if v == nil || !v.tracked || (v.sharedMut && inRegion) {
		return nil
	}
	return v
}

// trimNe refines a under "a != b": when b is an exact constant sitting
// on an endpoint of a, the endpoint moves inward; an interior hole is
// not representable and a is returned unchanged.
func trimNe(a, b Val) Val {
	c, ok := b.constVal()
	if !ok || !a.I.Contains(c) || !a.C.member(c) {
		return a
	}
	if v, isC := a.constVal(); isC && v == c {
		return bottomVal()
	}
	if a.I.HasLo && a.I.Lo == c {
		return a.meet(intervalVal(interval.AtLeast(c + 1)))
	}
	if a.I.HasHi && a.I.Hi == c {
		return a.meet(intervalVal(interval.AtMost(c - 1)))
	}
	return a
}
