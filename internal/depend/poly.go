package depend

import (
	"sort"
	"strings"
)

// poly is an integer polynomial over invariant symbols (runtime
// parameters such as DIM, and the thread-id pseudo-symbol tidSym).
// Keys are monomials: "" is the constant term, otherwise the "*"-joined
// sorted list of symbol names ("DIM", "DIM*DIM", "DIM*~tid"). All
// symbols are assumed non-negative: they are array extents, trip-count
// parameters or thread ids, and a negative value makes every loop bound
// in the seed grammar empty (so any dependence claim is vacuous).
//
// A poly is never written to once handed out (methods write only to maps
// they made; a caller that edits one clones it first), so add and sub may
// return their left operand, affine forms may share coefficients and
// small constants come from one table. Only the solver's scratch pair
// (walker.lo, walker.hi) is written in place, by the add* methods. Any
// empty map, nil included, is the zero polynomial.
type poly map[string]int64

const tidSym = "~tid"

// smallConsts holds the constant polynomials -16..16, shared by every
// caller of polyConst.
var smallConsts = func() (t [33]poly) {
	for i := range t {
		if c := int64(i - 16); c != 0 {
			t[i] = poly{"": c}
		}
	}
	return t
}()

func polyConst(c int64) poly {
	if -16 <= c && c <= 16 {
		return smallConsts[c+16]
	}
	return poly{"": c}
}

func polySym(s string) poly { return poly{s: 1} }

func (p poly) clone() poly {
	q := make(poly, len(p))
	for m, c := range p {
		q[m] = c
	}
	return q
}

func (p poly) add(q poly) poly {
	if len(q) == 0 {
		return p
	}
	r := p.clone()
	for m, c := range q {
		r[m] += c
		if r[m] == 0 {
			delete(r, m)
		}
	}
	return r
}

func (p poly) sub(q poly) poly {
	if len(q) == 0 {
		return p
	}
	r := p.clone()
	for m, c := range q {
		r[m] -= c
		if r[m] == 0 {
			delete(r, m)
		}
	}
	return r
}

func (p poly) negate() poly {
	r := make(poly, len(p))
	for m, c := range p {
		r[m] = -c
	}
	return r
}

func (p poly) mulInt(k int64) poly {
	if k == 0 || len(p) == 0 {
		return nil
	}
	r := make(poly, len(p))
	for m, c := range p {
		r[m] = c * k
	}
	return r
}

// mulMono multiplies two monomial keys: the sorted merge of their
// symbol factors.
func mulMono(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	parts := append(strings.Split(a, "*"), strings.Split(b, "*")...)
	sort.Strings(parts)
	return strings.Join(parts, "*")
}

func (p poly) mul(q poly) poly {
	if len(p) == 0 || len(q) == 0 {
		return nil
	}
	r := make(poly, len(p)*len(q))
	for ma, ca := range p {
		for mb, cb := range q {
			m := mulMono(ma, mb)
			r[m] += ca * cb
			if r[m] == 0 {
				delete(r, m)
			}
		}
	}
	return r
}

// addScaled adds s*q to p in place, leaving zero coefficients for
// dropZeros; only the solver's scratch polys are written this way.
func (p poly) addScaled(q poly, s int64) {
	for m, c := range q {
		p[m] += s * c
	}
}

// addProduct adds s*a*b to p in place, like addScaled.
func (p poly) addProduct(a, b poly, s int64) {
	for ma, ca := range a {
		for mb, cb := range b {
			p[mulMono(ma, mb)] += s * ca * cb
		}
	}
}

// dropZeros deletes the zero coefficients the add* methods leave.
func (p poly) dropZeros() {
	for m, c := range p {
		if c == 0 {
			delete(p, m)
		}
	}
}

func (p poly) isZero() bool { return len(p) == 0 }

func (p poly) equal(q poly) bool { return p.sub(q).isZero() }

// constVal returns the value of a constant polynomial.
func (p poly) constVal() (int64, bool) {
	switch len(p) {
	case 0:
		return 0, true
	case 1:
		c, ok := p[""]
		return c, ok
	}
	return 0, false
}

// isNonNeg reports whether p is provably >= 0 for every non-negative
// assignment of its symbols: true when all coefficients are >= 0.
func (p poly) isNonNeg() bool { return p.nonNegTimes(1) }

// nonNegTimes is isNonNeg of s*p for s = ±1, without building it.
func (p poly) nonNegTimes(s int64) bool {
	for _, c := range p {
		if s*c < 0 {
			return false
		}
	}
	return true
}

// constMultipleOf reports p == k*q for an integer k, returning k. The
// zero polynomial is 0*q for any q; a nonzero p is never a multiple of
// the zero polynomial.
func (p poly) constMultipleOf(q poly) (int64, bool) {
	if p.isZero() {
		return 0, true
	}
	if q.isZero() {
		return 0, false
	}
	var k int64
	for m, cq := range q {
		cp := p[m]
		if cp%cq != 0 {
			return 0, false
		}
		r := cp / cq
		if k == 0 {
			k = r
		} else if k != r {
			return 0, false
		}
	}
	if k == 0 {
		return 0, false // q has terms p lacks, or ratios disagree
	}
	if !p.equal(q.mulInt(k)) {
		return 0, false // p has monomials q lacks
	}
	return k, true
}

// divisibleBy reports that every coefficient of p is divisible by m
// (m > 0), so p/m is again an integer polynomial.
func (p poly) divisibleBy(m int64) bool {
	for _, c := range p {
		if c%m != 0 {
			return false
		}
	}
	return true
}

func (p poly) divInt(m int64) poly {
	r := make(poly, len(p))
	for m2, c := range p {
		r[m2] = c / m
	}
	return r
}

// tidSplit separates p into the tid-free part and the coefficient
// polynomial of tidSym. It fails when tid appears with degree >= 2.
func (p poly) tidSplit() (rest, tidCoef poly, ok bool) {
	if !p.hasTid() {
		return p, nil, true
	}
	rest, tidCoef = poly{}, poly{}
	for m, c := range p {
		parts := strings.Split(m, "*")
		n := 0
		var kept []string
		for _, s := range parts {
			if s == tidSym {
				n++
			} else if s != "" {
				kept = append(kept, s)
			}
		}
		switch n {
		case 0:
			rest[m] = c
		case 1:
			tidCoef[strings.Join(kept, "*")] += c
		default:
			return nil, nil, false
		}
	}
	return rest, tidCoef, true
}

// hasTid reports whether p mentions the thread-id pseudo-symbol.
func (p poly) hasTid() bool {
	for m := range p {
		if strings.Contains(m, tidSym) {
			return true
		}
	}
	return false
}

func (p poly) String() string {
	if len(p) == 0 {
		return "0"
	}
	monos := make([]string, 0, len(p))
	for m := range p {
		monos = append(monos, m)
	}
	sort.Strings(monos)
	var b strings.Builder
	for i, m := range monos {
		c := p[m]
		if i > 0 {
			if c >= 0 {
				b.WriteString("+")
			}
		}
		switch {
		case m == "":
			b.WriteString(itoa(c))
		case c == 1:
			b.WriteString(m)
		case c == -1:
			b.WriteString("-" + m)
		default:
			b.WriteString(itoa(c) + "*" + m)
		}
	}
	return b.String()
}

func itoa(c int64) string {
	// strconv without the import dance elsewhere.
	if c == 0 {
		return "0"
	}
	neg := c < 0
	if neg {
		c = -c
	}
	var buf [20]byte
	i := len(buf)
	for c > 0 {
		i--
		buf[i] = byte('0' + c%10)
		c /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
