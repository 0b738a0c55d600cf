package depend

import (
	"math/rand"
	"slices"
	"testing"
)

// polyGen draws random small polynomials over tid, DIM and n, of degree
// up to three, from one algebra, and evaluates them at integer points
// straight from their terms, without the arithmetic under test.
type polyGen struct {
	al   algebra
	rng  *rand.Rand
	syms []poly
}

func newPolyGen(seed int64) *polyGen {
	g := &polyGen{rng: rand.New(rand.NewSource(seed))}
	g.al.init()
	for _, s := range []symbol{{name: tidSym}, {name: "DIM"}, {name: "n"}} {
		g.syms = append(g.syms, g.al.sym(s))
	}
	return g
}

func (g *polyGen) random() poly {
	if g.rng.Intn(6) == 0 {
		return nil
	}
	var p poly
	for range g.rng.Intn(4) + 1 {
		m := g.al.constant(int64(g.rng.Intn(7) - 3))
		for range g.rng.Intn(3) {
			m = g.al.mul(m, g.syms[g.rng.Intn(len(g.syms))])
		}
		p = g.al.add(p, m)
	}
	return p
}

// eval is p's value with symbol ID i at x[i].
func (g *polyGen) eval(p poly, x []int64) int64 {
	var v int64
	for _, t := range p {
		c := t.c
		for _, s := range g.al.monos[t.m].syms {
			c *= x[s]
		}
		v += c
	}
	return v
}

// canonical fails unless p's terms are sorted by monomial, each once,
// with nonzero coefficients.
func canonical(t *testing.T, what string, p poly) {
	t.Helper()
	for i, tm := range p {
		if tm.c == 0 || i > 0 && p[i-1].m >= tm.m {
			t.Fatalf("%s = %v is not canonical", what, p)
		}
	}
}

// TestPolyAlgebraicLaws holds the term-slice arithmetic to the laws of
// the polynomial ring, on random polynomials: every result is canonical,
// add and mul are commutative and associative, mul distributes over add,
// 0 and 1 are the identities and p - p is 0; each operation commutes
// with evaluation at random points; the in-place appendScaled,
// appendProduct and normalize agree with lin and mul, comb with the sum
// it walks; and no operand is ever written to.
func TestPolyAlgebraicLaws(t *testing.T) {
	g := newPolyGen(1)
	al := &g.al
	x := make([]int64, len(al.syms))
	for i := 0; i < 20000; i++ {
		p, q, r, k := g.random(), g.random(), g.random(), int64(g.rng.Intn(5)-2)
		p0, q0, r0 := slices.Clone(p), slices.Clone(q), slices.Clone(r)
		for j := range x {
			x[j] = int64(g.rng.Intn(9) - 4)
		}
		sum, prod := al.add(p, q), al.mul(p, q)
		for _, c := range []struct {
			name string
			got  poly
			want int64
		}{
			{"p+q", sum, g.eval(p, x) + g.eval(q, x)},
			{"p-q", al.sub(p, q), g.eval(p, x) - g.eval(q, x)},
			{"-p", al.negate(p), -g.eval(p, x)},
			{"k*p", al.mulInt(p, k), k * g.eval(p, x)},
			{"p*q", prod, g.eval(p, x) * g.eval(q, x)},
		} {
			canonical(t, c.name, c.got)
			if v := g.eval(c.got, x); v != c.want {
				t.Fatalf("%s at %v: %d, want %d (p=%v q=%v)", c.name, x, v, c.want, p, q)
			}
		}
		laws := []struct {
			name     string
			lhs, rhs poly
		}{
			{"p+q = q+p", sum, al.add(q, p)},
			{"(p+q)+r = p+(q+r)", al.add(sum, r), al.add(p, al.add(q, r))},
			{"pq = qp", prod, al.mul(q, p)},
			{"(pq)r = p(qr)", al.mul(prod, r), al.mul(p, al.mul(q, r))},
			{"p(q+r) = pq+pr", al.mul(p, al.add(q, r)), al.add(prod, al.mul(p, r))},
			{"p+0 = p", al.add(p, nil), p},
			{"p*1 = p", al.mul(p, al.constant(1)), p},
			{"p*0 = 0", al.mul(p, nil), nil},
			{"p-p = 0", al.sub(p, p), nil},
			{"p-q = p+(-q)", al.sub(p, q), al.add(p, al.negate(q))},
			{"kp = (k)p", al.mulInt(p, k), al.mul(al.constant(k), p)},
		}
		for _, l := range laws {
			if !l.lhs.equal(l.rhs) {
				t.Fatalf("%s fails: %v vs %v (p=%v q=%v r=%v)", l.name, l.lhs, l.rhs, p, q, r)
			}
		}
		inPlace := normalize(al.appendProduct(appendScaled(nil, p, k), p, q, k))
		if want := al.add(al.mulInt(p, k), al.mulInt(prod, k)); !inPlace.equal(want) {
			t.Fatalf("%d*(%v) + %d*(%v)*(%v) in place = %v, want %v", k, p, k, p, q, inPlace, want)
		}
		for _, s := range []int64{1, -1} {
			want := true
			for _, tm := range al.mulInt(p, s) {
				want = want && tm.c >= 0
			}
			if got := p.nonNegTimes(s); got != want {
				t.Fatalf("(%v).nonNegTimes(%d) = %v", p, s, got)
			}
		}
		c := int64(g.rng.Intn(5) - 2)
		s := al.add(al.add(al.mulInt(p, k), al.mulInt(q, -k)), al.constant(c))
		nonNeg, zero := comb(p, k, q, -k, c)
		if nonNeg != s.isNonNeg() || zero != s.isZero() {
			t.Fatalf("comb(%v, %d, %v, %d, %d) = %v, %v; the sum %v", p, k, q, -k, c, nonNeg, zero, s)
		}
		if !p.equal(p0) || !q.equal(q0) || !r.equal(r0) {
			t.Fatalf("an operand was written to: %v %v %v, were %v %v %v", p, q, r, p0, q0, r0)
		}
	}
	checkSmallConsts(t)
}

// TestTidSplitRoundTrip: tidSplit(p) fails exactly when tid divides
// some monomial of p twice, and otherwise returns the parts p is made
// of: p = rest + tid*coef with rest free of tid.
func TestTidSplitRoundTrip(t *testing.T) {
	g := newPolyGen(2)
	al := &g.al
	tid := g.syms[0]
	for i := 0; i < 20000; i++ {
		p := g.random()
		square := false
		for _, tm := range p {
			square = square || al.monos[tm.m].tid >= 2
		}
		rest, coef, ok := al.tidSplit(p)
		if ok == square {
			t.Fatalf("(%v).tidSplit() ok = %v, tid squared: %v", p, ok, square)
		}
		if !ok {
			continue
		}
		canonical(t, "rest", rest)
		canonical(t, "coef", coef)
		if al.hasTid(rest) {
			t.Fatalf("(%v).tidSplit() rest %v mentions tid", p, rest)
		}
		if back := al.add(rest, al.mul(tid, coef)); !back.equal(p) {
			t.Fatalf("(%v).tidSplit() = %v, %v: they rebuild %v", p, rest, coef, back)
		}
		if al.hasTid(p) != !coef.isZero() {
			t.Fatalf("(%v).tidSplit() coefficient %v disagrees with hasTid", p, coef)
		}
	}
}

// TestConstMultipleOf: k*q is a constant multiple of q with factor k
// for every nonzero q and k, and whenever constMultipleOf answers yes,
// p is that multiple of q; zero is 0*q for any q, and only zero is a
// multiple of zero.
func TestConstMultipleOf(t *testing.T) {
	g := newPolyGen(3)
	al := &g.al
	for i := 0; i < 20000; i++ {
		p, q, k := g.random(), g.random(), int64(g.rng.Intn(9)-4)
		if got, ok := al.mulInt(q, k).constMultipleOf(q); k != 0 && !q.isZero() && (!ok || got != k) {
			t.Fatalf("(%d*(%v)).constMultipleOf(%v) = %d, %v", k, q, q, got, ok)
		}
		got, ok := p.constMultipleOf(q)
		switch {
		case p.isZero():
			if !ok || got != 0 {
				t.Fatalf("0.constMultipleOf(%v) = %d, %v", q, got, ok)
			}
		case q.isZero():
			if ok {
				t.Fatalf("(%v).constMultipleOf(0) = %d, true", p, got)
			}
		case ok && !p.equal(al.mulInt(q, got)):
			t.Fatalf("(%v).constMultipleOf(%v) = %d, but that is not p", p, q, got)
		}
	}
}
