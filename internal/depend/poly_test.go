package depend

import (
	"maps"
	"math/rand"
	"testing"
)

// TestPolyShortcutsMatchDefinitions holds the operand-sharing add, sub
// and tidSplit, nonNegTimes, and the in-place addScaled, addProduct and
// dropZeros against their definitions by map arithmetic, on random small
// polynomials that include explicit zero coefficients (tidSplit can
// leave them) and nil, and checks that no operand is ever written to.
func TestPolyShortcutsMatchDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	monos := []string{"", "DIM", "DIM*DIM", "DIM*~tid", "n"}
	random := func() poly {
		if rng.Intn(6) == 0 {
			return nil
		}
		p := poly{}
		for _, m := range monos {
			if rng.Intn(2) == 0 {
				p[m] = int64(rng.Intn(5) - 2)
			}
		}
		return p
	}
	// The definitions, as poly.go spelled them before the shortcuts.
	add := func(p, q poly) poly {
		r := p.clone()
		for m, c := range q {
			r[m] += c
			if r[m] == 0 {
				delete(r, m)
			}
		}
		return r
	}
	neg := func(p poly) poly {
		r := poly{}
		for m, c := range p {
			r[m] = -c
		}
		return r
	}
	mulInt := func(p poly, k int64) poly {
		r := poly{}
		for m, c := range p {
			if k != 0 {
				r[m] = c * k
			}
		}
		return r
	}
	for i := 0; i < 20000; i++ {
		p, q, k := random(), random(), int64(rng.Intn(5)-2)
		p0, q0 := p.clone(), q.clone()
		diff := add(p, neg(q))
		if got := p.add(q); !maps.Equal(got, add(p, q)) {
			t.Fatalf("(%v).add(%v) = %v", p, q, got)
		}
		if got := p.sub(q); !maps.Equal(got, diff) {
			t.Fatalf("(%v).sub(%v) = %v, want %v", p, q, got, diff)
		}
		if got := p.negate(); !maps.Equal(got, neg(p)) {
			t.Fatalf("(%v).negate() = %v", p, got)
		}
		if got := p.mulInt(k); !maps.Equal(got, mulInt(p, k)) {
			t.Fatalf("(%v).mulInt(%d) = %v", p, k, got)
		}
		for _, s := range []int64{1, -1} {
			want := true
			for _, c := range mulInt(p, s) {
				want = want && c >= 0
			}
			if got := p.nonNegTimes(s); got != want {
				t.Fatalf("(%v).nonNegTimes(%d) = %v", p, s, got)
			}
		}
		inPlace := poly{}
		inPlace.addScaled(p, k)
		inPlace.addProduct(p, q, k)
		inPlace.dropZeros()
		want := add(mulInt(p, k), mulInt(p.mul(q), k))
		maps.DeleteFunc(want, func(_ string, c int64) bool { return c == 0 })
		if !maps.Equal(inPlace, want) {
			t.Fatalf("%d*(%v) + %d*(%v)*(%v) in place = %v, want %v", k, p, k, p, q, inPlace, want)
		}
		if rest, tid, ok := p.tidSplit(); !p.hasTid() && (!ok || !maps.Equal(rest, p) || len(tid) != 0) {
			t.Fatalf("(%v).tidSplit() = %v, %v, %v", p, rest, tid, ok)
		}
		if !maps.Equal(p, p0) || !maps.Equal(q, q0) {
			t.Fatalf("an operand was written to: %v %v, were %v %v", p, q, p0, q0)
		}
	}
}
