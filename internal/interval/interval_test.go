package interval

import (
	"math"
	"testing"
)

func TestIntervalOps(t *testing.T) {
	a := Range(2, 5)
	b := Range(-1, 3)
	if j := a.Join(b); j.Lo != -1 || j.Hi != 5 {
		t.Errorf("join = %+v", j)
	}
	if m := a.Meet(b); m.Lo != 2 || m.Hi != 3 {
		t.Errorf("meet = %+v", m)
	}
	if s := a.Add(b); s.Lo != 1 || s.Hi != 8 {
		t.Errorf("add = %+v", s)
	}
	if p := a.Mul(Exact(-2)); p.Lo != -10 || p.Hi != -4 {
		t.Errorf("mul = %+v", p)
	}
	if q := Range(0, 59).Div(Exact(4)); q.Lo != 0 || q.Hi != 14 {
		t.Errorf("div = %+v", q)
	}
	if r := Range(0, 59).Rem(Exact(4)); r.Lo != 0 || r.Hi != 3 {
		t.Errorf("rem = %+v", r)
	}
	if r := Range(-7, -1).Rem(Exact(4)); r.Lo != -3 || r.Hi != 0 {
		t.Errorf("neg rem = %+v", r)
	}
	if !Range(3, 2).Empty {
		t.Errorf("inverted range should be bottom")
	}
}

func TestWiden(t *testing.T) {
	th := []int64{0, 10}
	w := Range(0, 1).Widen(Range(0, 2), th)
	if !w.HasHi || w.Hi != 10 {
		t.Errorf("widen to threshold = %+v", w)
	}
	w = Range(0, 10).Widen(Range(0, 11), th)
	if w.HasHi {
		t.Errorf("widen past last threshold should drop bound: %+v", w)
	}
}

// TestIntervalArithmetic checks the abstract operators over-approximate
// the concrete ones on a grid of small operand intervals: for every pair
// of concrete points, the concrete result must fall inside the abstract
// result. Soundness of every downstream bound rests on this.
func TestIntervalArithmetic(t *testing.T) {
	vals := []int64{-7, -3, -1, 0, 1, 2, 5, 9}
	var ivs []Interval
	for i, lo := range vals {
		for _, hi := range vals[i:] {
			ivs = append(ivs, Range(lo, hi))
		}
	}
	nonzero := func(f func(a, b int64) int64) func(a, b int64) (int64, bool) {
		return func(a, b int64) (int64, bool) {
			if b == 0 {
				return 0, false
			}
			return f(a, b), true
		}
	}
	always := func(f func(a, b int64) int64) func(a, b int64) (int64, bool) {
		return func(a, b int64) (int64, bool) { return f(a, b), true }
	}
	ops := []struct {
		name string
		abs  func(a, b Interval) Interval
		conc func(a, b int64) (int64, bool)
	}{
		{"add", Interval.Add, always(func(a, b int64) int64 { return a + b })},
		{"sub", Interval.Sub, always(func(a, b int64) int64 { return a - b })},
		{"mul", Interval.Mul, always(func(a, b int64) int64 { return a * b })},
		{"div", Interval.Div, nonzero(func(a, b int64) int64 { return a / b })},
		{"rem", Interval.Rem, nonzero(func(a, b int64) int64 { return a % b })},
		{"lt", Interval.Lt, always(func(a, b int64) int64 { return b2i(a < b) })},
		{"le", Interval.Le, always(func(a, b int64) int64 { return b2i(a <= b) })},
		{"eq", Interval.Eq, always(func(a, b int64) int64 { return b2i(a == b) })},
	}
	for _, o := range ops {
		for _, A := range ivs {
			for _, B := range ivs {
				r := o.abs(A, B)
				for a := A.Lo; a <= A.Hi; a++ {
					for b := B.Lo; b <= B.Hi; b++ {
						if c, ok := o.conc(a, b); ok && !r.Contains(c) {
							t.Fatalf("%s(%v,%v)=%v excludes %s(%d,%d)=%d", o.name, A, B, r, o.name, a, b, c)
						}
					}
				}
			}
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func TestDivByIntervalWithZeroIsUnknown(t *testing.T) {
	if r := Range(10, 20).Div(Range(-1, 1)); r.Bounded() {
		t.Errorf("division by an interval containing zero must be unknown, got %v", r)
	}
}

func TestPredicateClassification(t *testing.T) {
	if Range(1, 5).Truth() != +1 || Range(-3, -1).Truth() != +1 || AtLeast(1).Truth() != +1 {
		t.Error("intervals without zero must be true")
	}
	if Exact(0).Truth() != -1 {
		t.Error("exact zero must be false")
	}
	if Range(0, 1).Truth() != 0 || Top().Truth() != 0 || Bottom().Truth() != 0 {
		t.Error("[0,1], top and bottom must be undecided")
	}
}

// TestTripsMatchesIteration checks the closed form against running the
// loop: for every concrete init, bound and step in the operand intervals
// the loop runs some number of times, and Trips must be exactly the range
// of those counts.
func TestTripsMatchesIteration(t *testing.T) {
	run := func(i, b, s int64) int64 {
		n := int64(0)
		for ; s > 0 && i < b || s < 0 && i > b; i += s {
			n++
		}
		return n
	}
	cases := []struct{ init, bound, step Interval }{
		{Exact(0), Exact(16), Exact(1)},
		{Exact(0), Exact(16), Exact(3)},
		{Exact(10), Exact(0), Exact(-2)},
		{Exact(10), Exact(-1), Exact(-3)},
		{Range(0, 3), Exact(16), Exact(4)}, // a distributed loop: init is the thread id
		{Exact(5), Range(7, 12), Exact(2)}, // interval bound
		{Exact(0), Exact(20), Range(2, 5)}, // interval step
		{Range(-4, 4), Range(-8, 8), Range(-3, -1)},
		{Range(1, 9), Range(2, 30), Range(1, 7)},
		{Exact(16), Exact(16), Exact(1)}, // zero trips
		{Exact(20), Exact(16), Exact(1)},
		{Exact(-3), Exact(5), Exact(-1)},
		{Range(10, 20), Exact(15), Exact(1)}, // zero trips for some inits
	}
	for _, c := range cases {
		lo, hi := int64(math.MaxInt64), int64(0)
		for i := c.init.Lo; i <= c.init.Hi; i++ {
			for b := c.bound.Lo; b <= c.bound.Hi; b++ {
				for s := c.step.Lo; s <= c.step.Hi; s++ {
					n := run(i, b, s)
					lo, hi = min(lo, n), max(hi, n)
				}
			}
		}
		if got, want := Trips(c.init, c.bound, c.step), Range(lo, hi); !got.Equal(want) {
			t.Errorf("Trips(%v, %v, %v) = %v, iteration %v", c.init, c.bound, c.step, got, want)
		}
	}

	// Half-bounded operands fix only the ends they determine; a step not
	// bounded away from zero, an empty operand or an end that overflows
	// leaves that end open.
	for _, c := range []struct{ init, bound, step, want Interval }{
		{Exact(0), Exact(10), Range(-1, 1), AtLeast(0)},
		{Exact(0), Exact(10), AtLeast(1), AtLeast(0)},
		{Exact(0), Exact(10), Bottom(), AtLeast(0)},
		{Bottom(), Exact(10), Exact(1), AtLeast(0)},
		{AtMost(0), Exact(10), Exact(2), AtLeast(5)},
		{AtLeast(0), Exact(10), Exact(2), Range(0, 5)},
		{Exact(math.MinInt64 + 1), Exact(10), Exact(1), AtLeast(0)},
	} {
		if got := Trips(c.init, c.bound, c.step); !got.Equal(c.want) {
			t.Errorf("Trips(%v, %v, %v) = %v, want %v", c.init, c.bound, c.step, got, c.want)
		}
	}
}
