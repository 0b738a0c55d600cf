package depend

import (
	"slices"

	"paravis/internal/slab"
)

// poly is an integer polynomial over invariant symbols: runtime
// parameters such as DIM, the thread-id pseudo-symbol tidSym and, at the
// IR level, opaque live-in and carry-seed symbols. All symbols are
// assumed non-negative: they are array extents, trip-count parameters or
// thread ids, and a negative value makes every loop bound in the seed
// grammar empty (so any dependence claim is vacuous).
//
// A poly lists its terms sorted by monomial with no zero coefficient, so
// nil is the zero polynomial and two polys of one algebra are equal
// exactly when their term lists are. Monomials are interned per algebra
// (one per analysis): a poly means nothing outside the algebra that made
// it. A poly is never written to once handed out, so operations may
// return an operand, affine forms may share coefficients and small
// constants come from one read-only table. Only the solver's scratch
// intervals are built in place (appendScaled, appendProduct, normalize).
type poly []term

// term is one monomial with its nonzero coefficient.
type term struct {
	m mono
	c int64
}

// mono is an interned monomial: an index into its algebra's table. The
// constant monomial is 0 in every algebra, so it sorts first.
type mono int32

// symbol names one symbol: a parameter by name (idx 0), tidSym, or a
// per-graph live-in or carry seed by kind and index.
type symbol struct {
	name string
	idx  int
}

const tidSym = "~tid"

// monoInfo describes one interned monomial: its symbols as a sorted run
// of symbol IDs, tid's degree in it, and (when that degree is 1) the
// monomial with tid divided out.
type monoInfo struct {
	syms []int32
	tid  int
	rest mono
}

// algebra interns the symbols and monomials of one analysis and carves
// its polynomials and affine coefficient tables from per-analysis slabs.
// Symbol 0 is tidSym, so tid leads every monomial it divides. The symbol
// and monomial tables are searched linearly: an analysis meets a few
// dozen at most. They and the scratch lists start in the arrays at the
// end, so a small analysis allocates none of them; an algebra is set up
// in place by init and never copied.
type algebra struct {
	syms  []symbol
	monos []monoInfo
	ids   []int32 // backs the monomials' symbol runs

	terms slab.Lists[term]
	coefs slab.Lists[poly]

	buf   []term  // a result before it is carved
	pbuf  []poly  // a coefficient table before it is carved
	tuple []int32 // a monomial product before it is interned

	symArr   [8]symbol
	monoArr  [16]monoInfo
	idArr    [32]int32
	bufArr   [32]term
	pbufArr  [8]poly
	tupleArr [8]int32
}

func (al *algebra) init() {
	al.syms = append(al.symArr[:0], symbol{name: tidSym})
	al.monos = append(al.monoArr[:0], monoInfo{})
	al.ids, al.buf, al.pbuf, al.tuple = al.idArr[:0], al.bufArr[:0], al.pbufArr[:0], al.tupleArr[:0]
}

// intern returns the monomial of the sorted symbol run t.
func (al *algebra) intern(t []int32) mono {
	for m, mi := range al.monos {
		if slices.Equal(mi.syms, t) {
			return mono(m)
		}
	}
	off := len(al.ids)
	al.ids = append(al.ids, t...)
	mi := monoInfo{syms: al.ids[off:len(al.ids):len(al.ids)]}
	for mi.tid < len(t) && t[mi.tid] == 0 {
		mi.tid++
	}
	if mi.tid == 1 {
		mi.rest = al.intern(mi.syms[1:])
	}
	al.monos = append(al.monos, mi)
	return mono(len(al.monos) - 1)
}

// sym returns the polynomial of one symbol.
func (al *algebra) sym(s symbol) poly {
	id := slices.Index(al.syms, s)
	if id < 0 {
		id = len(al.syms)
		al.syms = append(al.syms, s)
	}
	return al.terms.Carve([]term{{al.intern([]int32{int32(id)}), 1}})
}

// monoMul returns the product of two monomials: the merge of their
// symbol runs.
func (al *algebra) monoMul(a, b mono) mono {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	al.tuple = append(append(al.tuple[:0], al.monos[a].syms...), al.monos[b].syms...)
	slices.Sort(al.tuple)
	return al.intern(al.tuple)
}

// smallConsts holds the constant polynomials -16..16, shared read-only
// by every algebra: the constant monomial is 0 in all of them.
var smallConsts = func() (t [33]poly) {
	for i := range t {
		if c := int64(i - 16); c != 0 {
			t[i] = poly{{0, c}}
		}
	}
	return t
}()

func (al *algebra) constant(c int64) poly {
	if -16 <= c && c <= 16 {
		return smallConsts[c+16]
	}
	return al.terms.Carve([]term{{0, c}})
}

// merge calls f for every monomial of a or b, in order, with its
// coefficient in each (0 where it has none).
func merge(a, b poly, f func(m mono, ca, cb int64)) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || i < len(a) && a[i].m < b[j].m:
			f(a[i].m, a[i].c, 0)
			i++
		case i == len(a) || b[j].m < a[i].m:
			f(b[j].m, 0, b[j].c)
			j++
		default:
			f(a[i].m, a[i].c, b[j].c)
			i++
			j++
		}
	}
}

// lin returns p + s*q.
func (al *algebra) lin(p, q poly, s int64) poly {
	if len(q) == 0 || s == 0 {
		return p
	}
	if len(p) == 0 && s == 1 {
		return q
	}
	out := al.buf[:0]
	merge(p, q, func(m mono, cp, cq int64) {
		if c := cp + s*cq; c != 0 {
			out = append(out, term{m, c})
		}
	})
	al.buf = out
	return al.terms.Carve(out)
}

func (al *algebra) add(p, q poly) poly { return al.lin(p, q, 1) }

func (al *algebra) sub(p, q poly) poly { return al.lin(p, q, -1) }

// mulInt returns k*p.
func (al *algebra) mulInt(p poly, k int64) poly {
	if k == 1 {
		return p
	}
	return al.lin(nil, p, k)
}

func (al *algebra) negate(p poly) poly { return al.lin(nil, p, -1) }

func (al *algebra) mul(p, q poly) poly {
	al.buf = al.appendProduct(al.buf[:0], p, q, 1)
	return al.terms.Carve(normalize(al.buf))
}

// appendScaled appends the terms of s*q to dst, unsorted: a scratch
// polynomial is built by appends and read after normalize.
func appendScaled(dst []term, q poly, s int64) []term {
	for _, t := range q {
		dst = append(dst, term{t.m, s * t.c})
	}
	return dst
}

// appendProduct appends the terms of s*a*b to dst, like appendScaled.
func (al *algebra) appendProduct(dst []term, a, b poly, s int64) []term {
	for _, ta := range a {
		for _, tb := range b {
			dst = append(dst, term{al.monoMul(ta.m, tb.m), s * ta.c * tb.c})
		}
	}
	return dst
}

// normalize sorts ts by monomial, sums repeated monomials and drops zero
// coefficients, in place.
func normalize(ts []term) poly {
	slices.SortFunc(ts, func(a, b term) int { return int(a.m) - int(b.m) })
	out := ts[:0]
	for _, t := range ts {
		if n := len(out); n > 0 && out[n-1].m == t.m {
			out[n-1].c += t.c
		} else {
			out = append(out, t)
		}
	}
	return slices.DeleteFunc(out, func(t term) bool { return t.c == 0 })
}

func (p poly) isZero() bool { return len(p) == 0 }

func (p poly) equal(q poly) bool { return slices.Equal(p, q) }

// constVal returns the value of a constant polynomial.
func (p poly) constVal() (int64, bool) {
	switch {
	case len(p) == 0:
		return 0, true
	case len(p) == 1 && p[0].m == 0:
		return p[0].c, true
	}
	return 0, false
}

// isNonNeg reports whether p is provably >= 0 for every non-negative
// assignment of its symbols: true when all coefficients are >= 0.
func (p poly) isNonNeg() bool { return p.nonNegTimes(1) }

// nonNegTimes is isNonNeg of s*p for s = ±1, without building it.
func (p poly) nonNegTimes(s int64) bool {
	for _, t := range p {
		if s*t.c < 0 {
			return false
		}
	}
	return true
}

// comb walks the coefficients of ka*a + kb*b + c, with c on the constant
// monomial, without building the sum: nonNeg reports that none is
// negative (the sum is provably >= 0), zero that all are zero.
func comb(a poly, ka int64, b poly, kb int64, c int64) (nonNeg, zero bool) {
	nonNeg, zero = true, true
	see := func(v int64) { nonNeg, zero = nonNeg && v >= 0, zero && v == 0 }
	constSeen := false
	merge(a, b, func(m mono, ca, cb int64) {
		v := ka*ca + kb*cb
		if m == 0 {
			v, constSeen = v+c, true
		}
		see(v)
	})
	if !constSeen {
		see(c)
	}
	return nonNeg, zero
}

// constMultipleOf reports p == k*q for an integer k, returning k. The
// zero polynomial is 0*q for any q; a nonzero p is never a multiple of
// the zero polynomial.
func (p poly) constMultipleOf(q poly) (int64, bool) {
	if len(p) == 0 {
		return 0, true
	}
	if len(q) != len(p) {
		return 0, false
	}
	var k int64
	for i, t := range p {
		if t.m != q[i].m || t.c%q[i].c != 0 {
			return 0, false
		}
		if r := t.c / q[i].c; i == 0 {
			k = r
		} else if r != k {
			return 0, false
		}
	}
	return k, true
}

// divisibleBy reports that every coefficient of p is divisible by m
// (m > 0), so p/m is again an integer polynomial.
func (p poly) divisibleBy(m int64) bool {
	for _, t := range p {
		if t.c%m != 0 {
			return false
		}
	}
	return true
}

// divInt returns p/m for a p divisibleBy m.
func (al *algebra) divInt(p poly, m int64) poly {
	out := al.buf[:0]
	for _, t := range p {
		out = append(out, term{t.m, t.c / m})
	}
	al.buf = out
	return al.terms.Carve(out)
}

// tidSplit separates p into the tid-free part and the coefficient
// polynomial of tidSym. It fails when tid appears with degree >= 2.
func (al *algebra) tidSplit(p poly) (rest, tidCoef poly, ok bool) {
	if !al.hasTid(p) {
		return p, nil, true
	}
	out := al.buf[:0]
	for _, t := range p {
		if al.monos[t.m].tid == 0 {
			out = append(out, t)
		}
	}
	nRest := len(out)
	for _, t := range p {
		switch al.monos[t.m].tid {
		case 0:
		case 1:
			out = append(out, term{al.monos[t.m].rest, t.c})
		default:
			return nil, nil, false
		}
	}
	al.buf = out
	rest = al.terms.Carve(out[:nRest])
	return rest, al.terms.Carve(normalize(out[nRest:])), true
}

// hasTid reports whether p mentions the thread-id pseudo-symbol.
func (al *algebra) hasTid(p poly) bool {
	for _, t := range p {
		if al.monos[t.m].tid > 0 {
			return true
		}
	}
	return false
}
