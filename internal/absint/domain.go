package absint

// This file implements the product abstract domain the interpreter runs
// over: the intervals of internal/interval (explicit missing bounds, so
// top needs no sentinel values and overflow simply drops a bound)
// crossed with arithmetic congruences x ≡ Rem (mod Mod) that track
// strides and parity through division and remainder — the precision the
// seed kernels' lane arithmetic (v/VECTOR_LEN, v%VECTOR_LEN) needs. The
// two components exchange information through reduce().

import (
	"math"

	"paravis/internal/interval"
)

// --- Congruences ---

// Cong is the congruence x ≡ Rem (mod Mod). Mod == 1 carries no
// information (top); Mod == 0 pins x to the constant Rem. Invariant:
// Mod >= 0 and 0 <= Rem < Mod whenever Mod > 0. Construct via congTop,
// congConst or congMod — the zero value claims "constantly 0".
type Cong struct {
	Mod int64
	Rem int64
}

func congTop() Cong          { return Cong{Mod: 1} }
func congConst(v int64) Cong { return Cong{Mod: 0, Rem: v} }

// congMod builds x ≡ r (mod m) for m >= 1.
func congMod(m, r int64) Cong {
	if m <= 1 {
		if m == 0 {
			return congConst(r)
		}
		return congTop()
	}
	return Cong{Mod: m, Rem: posMod(r, m)}
}

func (c Cong) isTop() bool { return c.Mod == 1 }

// member reports whether v satisfies the congruence.
func (c Cong) member(v int64) bool {
	if c.Mod == 0 {
		return v == c.Rem
	}
	return posMod(v, c.Mod) == c.Rem
}

func posMod(v, m int64) int64 {
	r := v % m
	if r < 0 {
		r += m
	}
	return r
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (c Cong) add(o Cong) Cong {
	if c.Mod == 0 && o.Mod == 0 {
		if v, ok := interval.CheckedAdd(c.Rem, o.Rem); ok {
			return congConst(v)
		}
		return congTop()
	}
	g := gcd64(c.Mod, o.Mod)
	if g == 0 {
		return congTop()
	}
	s, ok := interval.CheckedAdd(posMod(c.Rem, g), posMod(o.Rem, g))
	if !ok {
		return congTop()
	}
	return congMod(g, s)
}

func (c Cong) neg() Cong {
	if c.Mod == 0 {
		if c.Rem == math.MinInt64 {
			return congTop()
		}
		return congConst(-c.Rem)
	}
	return congMod(c.Mod, c.Mod-c.Rem)
}

func (c Cong) sub(o Cong) Cong { return c.add(o.neg()) }

func (c Cong) mul(o Cong) Cong {
	if c.Mod == 0 && o.Mod == 0 {
		if v, ok := interval.CheckedMul(c.Rem, o.Rem); ok {
			return congConst(v)
		}
		return congTop()
	}
	mm, ok1 := interval.CheckedMul(c.Mod, o.Mod)
	mr, ok2 := interval.CheckedMul(c.Mod, o.Rem)
	rm, ok3 := interval.CheckedMul(c.Rem, o.Mod)
	rr, ok4 := interval.CheckedMul(c.Rem, o.Rem)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return congTop()
	}
	g := gcd64(gcd64(mm, mr), rm)
	if g == 0 {
		return congConst(rr)
	}
	return congMod(g, rr)
}

func (c Cong) join(o Cong) Cong {
	d, ok := interval.CheckedSub(c.Rem, o.Rem)
	if !ok {
		return congTop()
	}
	g := gcd64(gcd64(c.Mod, o.Mod), d)
	if g == 0 {
		return c // both exact, equal remainders
	}
	return congMod(g, c.Rem)
}

// meet refines toward the intersection; ok=false means the intersection
// is provably empty. When the exact meet is awkward (two incomparable
// moduli) it soundly returns the finer operand.
func (c Cong) meet(o Cong) (Cong, bool) {
	switch {
	case c.isTop():
		return o, true
	case o.isTop():
		return c, true
	case c.Mod == 0:
		return c, o.member(c.Rem)
	case o.Mod == 0:
		return o, c.member(o.Rem)
	}
	g := gcd64(c.Mod, o.Mod)
	if posMod(c.Rem, g) != posMod(o.Rem, g) {
		return c, false
	}
	if c.Mod >= o.Mod {
		return c, true
	}
	return o, true
}

// divExact divides by a constant c that exactly divides every member
// (c | Mod and c | Rem), so no truncation occurs.
func (c Cong) divExact(d int64) (Cong, bool) {
	if d <= 0 {
		return congTop(), false
	}
	if c.Mod%d != 0 {
		return congTop(), false
	}
	if c.Mod == 0 {
		if c.Rem%d != 0 {
			return congTop(), false
		}
		return congConst(c.Rem / d), true
	}
	if posMod(c.Rem, d) != 0 {
		return congTop(), false
	}
	return congMod(c.Mod/d, c.Rem/d), true
}

// remConst folds x % d for non-negative x when d divides the modulus.
func (c Cong) remConst(d int64, nonNeg bool) (Cong, bool) {
	if d <= 0 || !nonNeg {
		return congTop(), false
	}
	if c.Mod == 0 {
		return congConst(posMod(c.Rem, d)), true
	}
	if c.Mod%d == 0 {
		return congConst(posMod(c.Rem, d)), true
	}
	return congTop(), false
}

// --- Product domain ---

// Val is one abstract value: an interval refined by a congruence. The
// bottom element is any Val whose interval is empty.
type Val struct {
	I interval.Interval
	C Cong
}

func topVal() Val          { return Val{I: interval.Top(), C: congTop()} }
func exactVal(v int64) Val { return Val{I: interval.Exact(v), C: congConst(v)} }
func bottomVal() Val       { return Val{I: interval.Bottom(), C: congTop()} }
func intervalVal(i interval.Interval) Val {
	return reduce(Val{I: i, C: congTop()})
}

func (v Val) isBottom() bool { return v.I.Empty }
func (v Val) isTop() bool    { return v.I.IsTop() && v.C.isTop() }

// reduce exchanges information between the components: a singleton
// interval pins the congruence, and a nontrivial congruence tightens
// finite interval ends to the nearest member (possibly emptying it).
func reduce(v Val) Val {
	if v.I.Empty {
		return bottomVal()
	}
	if v.C.Mod == 0 {
		v.I = v.I.Meet(interval.Exact(v.C.Rem))
		if v.I.Empty {
			return bottomVal()
		}
		return v
	}
	if c, ok := v.I.Const(); ok {
		if !v.C.member(c) {
			return bottomVal()
		}
		v.C = congConst(c)
		return v
	}
	if v.C.Mod > 1 {
		if v.I.HasLo {
			if d, ok := interval.CheckedSub(v.C.Rem, v.I.Lo); ok {
				v.I.Lo += posMod(d, v.C.Mod)
			}
		}
		if v.I.HasHi {
			if d, ok := interval.CheckedSub(v.I.Hi, v.C.Rem); ok {
				v.I.Hi -= posMod(d, v.C.Mod)
			}
		}
		if v.I.HasLo && v.I.HasHi && v.I.Lo > v.I.Hi {
			return bottomVal()
		}
		if c, ok := v.I.Const(); ok {
			v.C = congConst(c)
		}
	}
	return v
}

func (v Val) add(o Val) Val { return reduce(Val{I: v.I.Add(o.I), C: v.C.add(o.C)}) }
func (v Val) sub(o Val) Val { return reduce(Val{I: v.I.Sub(o.I), C: v.C.sub(o.C)}) }
func (v Val) mul(o Val) Val { return reduce(Val{I: v.I.Mul(o.I), C: v.C.mul(o.C)}) }
func (v Val) neg() Val      { return reduce(Val{I: v.I.Neg(), C: v.C.neg()}) }

func (v Val) div(o Val) Val {
	r := Val{I: v.I.Div(o.I), C: congTop()}
	if c, ok := o.constVal(); ok && c > 0 {
		if dc, ok := v.C.divExact(c); ok && (v.I.HasLo && v.I.Lo >= 0 || v.C.Mod == 0) {
			// Exact division: the quotient keeps the scaled stride.
			r.C = dc
		}
	}
	return reduce(r)
}

func (v Val) rem(o Val) Val {
	r := Val{I: v.I.Rem(o.I), C: congTop()}
	if c, ok := o.constVal(); ok && c > 0 {
		nonNeg := v.I.HasLo && v.I.Lo >= 0
		if rc, ok := v.C.remConst(c, nonNeg || v.C.Mod == 0 && v.C.Rem >= 0); ok {
			r.C = rc
		}
	}
	return reduce(r)
}

func (v Val) join(o Val) Val {
	if v.isBottom() {
		return o
	}
	if o.isBottom() {
		return v
	}
	return reduce(Val{I: v.I.Join(o.I), C: v.C.join(o.C)})
}

func (v Val) meet(o Val) Val {
	c, ok := v.C.meet(o.C)
	if !ok {
		return bottomVal()
	}
	return reduce(Val{I: v.I.Meet(o.I), C: c})
}

func (v Val) widen(next Val, th []int64) Val {
	if v.isBottom() {
		return next
	}
	if next.isBottom() {
		return v
	}
	// The congruence lattice has finite descending chains (each join
	// divides the previous modulus), so only the interval needs widening.
	return reduce(Val{I: v.I.Widen(next.I, th), C: next.C})
}

func (v Val) equal(o Val) bool {
	if v == o {
		return true
	}
	if v.isBottom() || o.isBottom() {
		return v.isBottom() == o.isBottom()
	}
	return v.I.Equal(o.I) && v.C == o.C
}

func (v Val) constVal() (int64, bool) { return v.I.Const() }

// truth classifies v as a condition: +1 provably nonzero, -1 provably
// zero, 0 undecided.
func (v Val) truth() int {
	if t := v.I.Truth(); t != 0 || v.isBottom() {
		return t
	}
	if !v.C.member(0) {
		return +1
	}
	return 0
}

// Comparison evaluation: exact 0/1 when provable, else [0,1].

func boolVal(t int) Val {
	switch {
	case t > 0:
		return exactVal(1)
	case t < 0:
		return exactVal(0)
	default:
		return intervalVal(interval.Range(0, 1))
	}
}

func cmpLt(a, b Val) Val { return intervalVal(a.I.Lt(b.I)) }
func cmpLe(a, b Val) Val { return intervalVal(a.I.Le(b.I)) }

func cmpEq(a, b Val) Val {
	if a.isBottom() || b.isBottom() {
		return bottomVal()
	}
	ca, oka := a.constVal()
	cb, okb := b.constVal()
	if oka && okb {
		if ca == cb {
			return exactVal(1)
		}
		return exactVal(0)
	}
	if a.meet(b).isBottom() {
		return exactVal(0)
	}
	return boolVal(0)
}
