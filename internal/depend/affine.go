package depend

// aff is an affine function of loop ITERATION indices with polynomial
// coefficients: base + sum(coef[L] * t_L), where t_L counts executions
// of loop L's body (t_L = 0 on the first iteration). Working in
// iteration space rather than induction-variable value space makes
// dependence distances iteration distances directly, and makes the
// div/mod folding rule (see divMod) a plain divisibility check.
//
// coef is indexed by the loop's dense ID (its index in the walker's loop
// table; the IR level has the one loop graphIter) and ends at the last
// nonzero coefficient, so a loop-invariant form has none. Tables are
// carved from the algebra and, like polys, never written once handed
// out.
//
// ok == false is bottom: the expression is not affine (or not provably
// so), and every dependence question involving it must answer "may".
type aff struct {
	ok   bool
	base poly
	coef []poly
}

func affBottom() aff { return aff{} }

func affPoly(p poly) aff { return aff{ok: true, base: p} }

func (a aff) coefOf(id int) poly {
	if id < len(a.coef) {
		return a.coef[id]
	}
	return nil
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

func (al *algebra) affConst(c int64) aff { return affPoly(al.constant(c)) }

// iterAff is the form p*t_id.
func (al *algebra) iterAff(base poly, id int, p poly) aff {
	tab := al.pbuf[:0]
	for range id {
		tab = append(tab, nil)
	}
	return al.affOf(base, append(tab, p))
}

// affOf makes a form from base and the coefficient table in al.pbuf
// (or a prefix of it), trimming trailing zero coefficients.
func (al *algebra) affOf(base poly, tab []poly) aff {
	n := len(tab)
	for n > 0 && tab[n-1].isZero() {
		n--
	}
	al.pbuf = tab
	return aff{ok: true, base: base, coef: al.coefs.Carve(tab[:n])}
}

// affLin returns a + s*b.
func (al *algebra) affLin(a, b aff, s int64) aff {
	if !a.ok || !b.ok {
		return affBottom()
	}
	base := al.lin(a.base, b.base, s)
	if len(b.coef) == 0 {
		return aff{ok: true, base: base, coef: a.coef}
	}
	tab := al.pbuf[:0]
	for id := range max(len(a.coef), len(b.coef)) {
		tab = append(tab, al.lin(a.coefOf(id), b.coefOf(id), s))
	}
	return al.affOf(base, tab)
}

func (al *algebra) affAdd(a, b aff) aff { return al.affLin(a, b, 1) }

func (al *algebra) affSub(a, b aff) aff { return al.affLin(a, b, -1) }

func (al *algebra) affNeg(a aff) aff { return al.affLin(aff{ok: true}, a, -1) }

// affMul multiplies two affine forms; defined only when at least one side
// is loop-invariant (a pure polynomial). iv*iv products are not affine.
func (al *algebra) affMul(a, b aff) aff {
	if !a.ok || !b.ok {
		return affBottom()
	}
	if len(b.coef) > 0 {
		if len(a.coef) > 0 {
			return affBottom()
		}
		a, b = b, a
	}
	base := al.mul(a.base, b.base)
	tab := al.pbuf[:0]
	for _, p := range a.coef {
		tab = append(tab, al.mul(p, b.base))
	}
	return al.affOf(base, tab)
}

// divMod folds (a div m) or (a mod m) for a literal m > 0. The result
// is affine exactly when every iteration coefficient and every
// non-constant base monomial is divisible by m: then a = m*q + r with r
// the constant remainder, so a div m = q and a mod m = r, both exact.
// (This is how `v/VECTOR_LEN` folds when v steps by VECTOR_LEN — the
// iteration coefficient is step*1 = 4 — while `v%VECTOR_LEN` with a
// unit step stays non-affine and poisons the access, which is the sound
// answer.)
func (al *algebra) divMod(a aff, m int64, mod bool) aff {
	if !a.ok || m <= 0 {
		return affBottom()
	}
	for _, p := range a.coef {
		if !p.divisibleBy(m) {
			return affBottom()
		}
	}
	c, rest := int64(0), a.base
	if len(rest) > 0 && rest[0].m == 0 {
		c, rest = rest[0].c, rest[1:]
	}
	if !rest.divisibleBy(m) {
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
		return al.affConst(r)
	}
	base := al.add(al.divInt(rest, m), al.constant((c-r)/m))
	tab := al.pbuf[:0]
	for _, p := range a.coef {
		tab = append(tab, al.divInt(p, m))
	}
	return al.affOf(base, tab)
}

// interval is a pair of polynomial bounds lo <= x <= hi (inclusive),
// valid under the all-symbols-non-negative assumption.
type interval struct {
	ok     bool
	lo, hi poly
}
