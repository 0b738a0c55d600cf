package depend

// aff is an affine function of loop ITERATION indices with polynomial
// coefficients: Base + sum(Coef[L] * t_L), where t_L counts executions
// of loop L's body (t_L = 0 on the first iteration). Working in
// iteration space rather than induction-variable value space makes
// dependence distances iteration distances directly, and makes the
// div/mod folding rule (see evalAff) a plain divisibility check.
//
// ok == false is bottom: the expression is not affine (or not provably
// so), and every dependence question involving it must answer "may".
type aff struct {
	ok   bool
	base poly
	coef map[*loopInfo]poly
}

func affBottom() aff { return aff{} }

func affPoly(p poly) aff { return aff{ok: true, base: p} }

func affConst(c int64) aff { return affPoly(polyConst(c)) }

func (a aff) clone() aff {
	if !a.ok {
		return a
	}
	b := aff{ok: true, base: a.base.clone()}
	if len(a.coef) > 0 {
		b.coef = make(map[*loopInfo]poly, len(a.coef))
		for l, p := range a.coef {
			b.coef[l] = p.clone()
		}
	}
	return b
}

func (a aff) add(b aff) aff {
	if !a.ok || !b.ok {
		return affBottom()
	}
	r := aff{ok: true, base: a.base.add(b.base)}
	if len(a.coef)+len(b.coef) > 0 {
		r.coef = make(map[*loopInfo]poly, len(a.coef)+len(b.coef))
		for l, p := range a.coef {
			r.coef[l] = p
		}
		for l, p := range b.coef {
			r = r.setCoef(l, r.coefOf(l).add(p))
		}
	}
	return r
}

func (a aff) sub(b aff) aff { return a.add(b.negate()) }

func (a aff) negate() aff {
	if !a.ok {
		return a
	}
	r := aff{ok: true, base: a.base.negate()}
	if len(a.coef) > 0 {
		r.coef = make(map[*loopInfo]poly, len(a.coef))
		for l, p := range a.coef {
			r.coef[l] = p.negate()
		}
	}
	return r
}

// mul multiplies two affine forms; defined only when at least one side
// is loop-invariant (a pure polynomial). iv*iv products are not affine.
func (a aff) mul(b aff) aff {
	if !a.ok || !b.ok {
		return affBottom()
	}
	if len(b.coef) == 0 {
		r := aff{ok: true, base: a.base.mul(b.base)}
		for l, p := range a.coef {
			r = r.setCoef(l, p.mul(b.base))
		}
		return r
	}
	if len(a.coef) == 0 {
		return b.mul(a)
	}
	return affBottom()
}

func (a aff) coefOf(l *loopInfo) poly { return a.coef[l] }

func (a aff) setCoef(l *loopInfo, p poly) aff {
	if p.isZero() {
		delete(a.coef, l)
		return a
	}
	if a.coef == nil {
		a.coef = make(map[*loopInfo]poly)
	}
	a.coef[l] = p
	return a
}

// isInvariant reports that a does not vary with any loop.
func (a aff) isInvariant() bool { return a.ok && len(a.coef) == 0 }

// constVal returns the value of a constant affine form.
func (a aff) constVal() (int64, bool) {
	if !a.isInvariant() {
		return 0, false
	}
	return a.base.constVal()
}

// divMod folds (a div m) or (a mod m) for a literal m > 0. The result
// is affine exactly when every iteration coefficient and every
// non-constant base monomial is divisible by m: then a = m*q + r with r
// the constant remainder, so a div m = q and a mod m = r, both exact.
// (This is how `v/VECTOR_LEN` folds when v steps by VECTOR_LEN — the
// iteration coefficient is step*1 = 4 — while `v%VECTOR_LEN` with a
// unit step stays non-affine and poisons the access, which is the sound
// answer.)
func (a aff) divMod(m int64, mod bool) aff {
	if !a.ok || m <= 0 {
		return affBottom()
	}
	for _, p := range a.coef {
		if !p.divisibleBy(m) {
			return affBottom()
		}
	}
	base := a.base.clone()
	c := base[""]
	delete(base, "")
	if !base.divisibleBy(m) {
		return affBottom()
	}
	// Remainder of the constant term; C semantics on negative operands
	// do not arise (subscripts are non-negative), but floor-divide the
	// constant consistently anyway.
	r := c % m
	if r < 0 {
		r += m
	}
	if mod {
		return affConst(r)
	}
	out := aff{ok: true, base: base.divInt(m)}
	out.base[""] += (c - r) / m
	if len(out.base) > 0 && out.base[""] == 0 {
		delete(out.base, "")
	}
	if len(a.coef) > 0 {
		out.coef = make(map[*loopInfo]poly, len(a.coef))
		for l, p := range a.coef {
			out.coef[l] = p.divInt(m)
		}
	}
	return out
}

// interval is a pair of polynomial bounds lo <= x <= hi (inclusive),
// valid under the all-symbols-non-negative assumption.
type interval struct {
	ok     bool
	lo, hi poly
}

// provablyBelow reports x < y for all x <= iv.hi when the gap y - hi is
// provably >= 1.
func provablyBelow(hi, y poly) bool { return y.sub(hi).sub(polyConst(1)).isNonNeg() }

// containsZero reports whether 0 may lie in the interval: it returns
// false only when the interval is provably strictly positive or
// strictly negative.
func (iv interval) containsZero() bool {
	if !iv.ok {
		return true
	}
	if iv.lo.sub(polyConst(1)).isNonNeg() { // lo >= 1
		return false
	}
	if iv.hi.negate().sub(polyConst(1)).isNonNeg() { // hi <= -1
		return false
	}
	return true
}
