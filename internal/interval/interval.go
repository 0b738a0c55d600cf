// Package interval is the integer interval lattice the static analyses
// share: internal/absint runs its abstract interpreter over it (crossed
// with congruences) and internal/perfbound folds trip counts with it.
// Bounds are machine integers with explicit presence flags, so top needs
// no sentinel values, and an operation whose bound would overflow int64
// drops that bound instead of saturating or wrapping.
package interval

import (
	"fmt"
	"math"
)

// Interval is a contiguous set of int64 values. A missing bound
// (HasLo/HasHi false) means unbounded on that side; Empty marks the
// bottom element. The zero value is top (all integers).
type Interval struct {
	Empty bool
	HasLo bool
	HasHi bool
	Lo    int64
	Hi    int64
}

// Top returns the full interval.
func Top() Interval { return Interval{} }

// Bottom returns the empty interval.
func Bottom() Interval { return Interval{Empty: true} }

// Exact returns the singleton interval {v}.
func Exact(v int64) Interval { return Interval{HasLo: true, HasHi: true, Lo: v, Hi: v} }

// Range returns [lo, hi]; lo > hi yields bottom.
func Range(lo, hi int64) Interval {
	if lo > hi {
		return Bottom()
	}
	return Interval{HasLo: true, HasHi: true, Lo: lo, Hi: hi}
}

// AtLeast returns [lo, +inf).
func AtLeast(lo int64) Interval { return Interval{HasLo: true, Lo: lo} }

// AtMost returns (-inf, hi].
func AtMost(hi int64) Interval { return Interval{HasHi: true, Hi: hi} }

// IsTop reports whether the interval carries no information.
func (a Interval) IsTop() bool { return !a.Empty && !a.HasLo && !a.HasHi }

// String renders the interval for diagnostics: a bare number for
// singletons, "[lo, hi]" otherwise with "-inf"/"+inf" for missing ends.
func (a Interval) String() string {
	if a.Empty {
		return "(empty)"
	}
	if c, ok := a.Const(); ok {
		return fmt.Sprintf("%d", c)
	}
	lo, hi := "-inf", "+inf"
	if a.HasLo {
		lo = fmt.Sprintf("%d", a.Lo)
	}
	if a.HasHi {
		hi = fmt.Sprintf("%d", a.Hi)
	}
	return fmt.Sprintf("[%s, %s]", lo, hi)
}

// Bounded reports whether both ends are finite.
func (a Interval) Bounded() bool { return !a.Empty && a.HasLo && a.HasHi }

// Const returns the single value of a singleton interval.
func (a Interval) Const() (int64, bool) {
	if a.Bounded() && a.Lo == a.Hi {
		return a.Lo, true
	}
	return 0, false
}

// Contains reports whether v is a member.
func (a Interval) Contains(v int64) bool {
	if a.Empty {
		return false
	}
	if a.HasLo && v < a.Lo {
		return false
	}
	if a.HasHi && v > a.Hi {
		return false
	}
	return true
}

// Join returns the smallest interval covering both operands.
func (a Interval) Join(b Interval) Interval {
	if a.Empty {
		return b
	}
	if b.Empty {
		return a
	}
	var r Interval
	if a.HasLo && b.HasLo {
		r.HasLo, r.Lo = true, min(a.Lo, b.Lo)
	}
	if a.HasHi && b.HasHi {
		r.HasHi, r.Hi = true, max(a.Hi, b.Hi)
	}
	return r
}

// Meet returns the intersection.
func (a Interval) Meet(b Interval) Interval {
	if a.Empty || b.Empty {
		return Bottom()
	}
	r := a
	if b.HasLo && (!r.HasLo || b.Lo > r.Lo) {
		r.HasLo, r.Lo = true, b.Lo
	}
	if b.HasHi && (!r.HasHi || b.Hi < r.Hi) {
		r.HasHi, r.Hi = true, b.Hi
	}
	if r.HasLo && r.HasHi && r.Lo > r.Hi {
		return Bottom()
	}
	return r
}

// Equal reports structural equality (bottom compares equal to bottom).
func (a Interval) Equal(b Interval) bool {
	if a.Empty || b.Empty {
		return a.Empty == b.Empty
	}
	if a.HasLo != b.HasLo || a.HasHi != b.HasHi {
		return false
	}
	if a.HasLo && a.Lo != b.Lo {
		return false
	}
	if a.HasHi && a.Hi != b.Hi {
		return false
	}
	return true
}

// Widen extrapolates a bound that grew between iterations to the next
// threshold of the ascending list th (or drops it), guaranteeing
// termination of the ascending chain. next must cover a (callers join
// first).
func (a Interval) Widen(next Interval, th []int64) Interval {
	if a.Empty {
		return next
	}
	if next.Empty {
		return a
	}
	r := next
	if next.HasLo && (!a.HasLo || next.Lo < a.Lo) {
		// Lower bound decreased: snap down to the largest threshold <= it.
		r.HasLo = false
		for i := len(th) - 1; i >= 0; i-- {
			if th[i] <= next.Lo {
				r.HasLo, r.Lo = true, th[i]
				break
			}
		}
	}
	if next.HasHi && (!a.HasHi || next.Hi > a.Hi) {
		// Upper bound increased: snap up to the smallest threshold >= it.
		r.HasHi = false
		for _, t := range th {
			if t >= next.Hi {
				r.HasHi, r.Hi = true, t
				break
			}
		}
	}
	return r
}

// CheckedAdd returns a + b, or false when the sum overflows int64.
func CheckedAdd(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// CheckedSub returns a - b, or false when the difference overflows int64.
func CheckedSub(a, b int64) (int64, bool) {
	if b == math.MinInt64 {
		return 0, false
	}
	return CheckedAdd(a, -b)
}

// CheckedMul returns a * b, or false when the product overflows int64.
func CheckedMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// Add returns the interval sum; a bound that overflows is dropped.
func (a Interval) Add(b Interval) Interval {
	if a.Empty || b.Empty {
		return Bottom()
	}
	var r Interval
	if a.HasLo && b.HasLo {
		if v, ok := CheckedAdd(a.Lo, b.Lo); ok {
			r.HasLo, r.Lo = true, v
		}
	}
	if a.HasHi && b.HasHi {
		if v, ok := CheckedAdd(a.Hi, b.Hi); ok {
			r.HasHi, r.Hi = true, v
		}
	}
	return r
}

// Neg returns the negated interval.
func (a Interval) Neg() Interval {
	if a.Empty {
		return Bottom()
	}
	var r Interval
	if a.HasHi && a.Hi != math.MinInt64 {
		r.HasLo, r.Lo = true, -a.Hi
	}
	if a.HasLo && a.Lo != math.MinInt64 {
		r.HasHi, r.Hi = true, -a.Lo
	}
	return r
}

// Sub returns a - b.
func (a Interval) Sub(b Interval) Interval { return a.Add(b.Neg()) }

// Mul returns the interval product. Fully bounded operands multiply
// exactly; half-bounded cases are handled for a constant factor and for
// non-negative operands; anything else is top.
func (a Interval) Mul(b Interval) Interval {
	if a.Empty || b.Empty {
		return Bottom()
	}
	if c, ok := b.Const(); ok {
		return a.mulConst(c)
	}
	if c, ok := a.Const(); ok {
		return b.mulConst(c)
	}
	if a.Bounded() && b.Bounded() {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, x := range []int64{a.Lo, a.Hi} {
			for _, y := range []int64{b.Lo, b.Hi} {
				p, ok := CheckedMul(x, y)
				if !ok {
					return Top()
				}
				lo, hi = min(lo, p), max(hi, p)
			}
		}
		return Range(lo, hi)
	}
	if a.HasLo && a.Lo >= 0 && b.HasLo && b.Lo >= 0 {
		// Both non-negative: the product is at least Lo*Lo.
		r := Interval{}
		if v, ok := CheckedMul(a.Lo, b.Lo); ok {
			r.HasLo, r.Lo = true, v
		} else {
			r.HasLo, r.Lo = true, 0
		}
		return r
	}
	return Top()
}

func (a Interval) mulConst(c int64) Interval {
	if c == 0 {
		return Exact(0)
	}
	var r Interval
	scale := func(v int64) (int64, bool) { return CheckedMul(v, c) }
	if c > 0 {
		if a.HasLo {
			if v, ok := scale(a.Lo); ok {
				r.HasLo, r.Lo = true, v
			}
		}
		if a.HasHi {
			if v, ok := scale(a.Hi); ok {
				r.HasHi, r.Hi = true, v
			}
		}
	} else {
		if a.HasHi {
			if v, ok := scale(a.Hi); ok {
				r.HasLo, r.Lo = true, v
			}
		}
		if a.HasLo {
			if v, ok := scale(a.Lo); ok {
				r.HasHi, r.Hi = true, v
			}
		}
	}
	return r
}

// Div returns the C (truncating) quotient interval. Precise for a
// nonzero constant divisor (truncation is monotone); a divisor proven
// >= 1 pulls the result toward zero; anything else is top.
func (a Interval) Div(b Interval) Interval {
	if a.Empty || b.Empty {
		return Bottom()
	}
	if c, ok := b.Const(); ok && c != 0 {
		var r Interval
		q := func(v int64) (int64, bool) {
			if v == math.MinInt64 && c == -1 {
				return 0, false
			}
			return v / c, true
		}
		if c > 0 {
			if a.HasLo {
				if v, ok := q(a.Lo); ok {
					r.HasLo, r.Lo = true, v
				}
			}
			if a.HasHi {
				if v, ok := q(a.Hi); ok {
					r.HasHi, r.Hi = true, v
				}
			}
		} else {
			if a.HasHi {
				if v, ok := q(a.Hi); ok {
					r.HasLo, r.Lo = true, v
				}
			}
			if a.HasLo {
				if v, ok := q(a.Lo); ok {
					r.HasHi, r.Hi = true, v
				}
			}
		}
		return r
	}
	if b.HasLo && b.Lo >= 1 {
		// Dividing by >= 1 moves the value toward zero.
		var r Interval
		if a.HasLo {
			r.HasLo, r.Lo = true, min(a.Lo, 0)
		}
		if a.HasHi {
			r.HasHi, r.Hi = true, max(a.Hi, 0)
		}
		return r
	}
	return Top()
}

// Rem returns the C remainder interval (sign follows the dividend).
func (a Interval) Rem(b Interval) Interval {
	if a.Empty || b.Empty {
		return Bottom()
	}
	var m int64
	if c, ok := b.Const(); ok && c != 0 && c != math.MinInt64 {
		m = c
		if m < 0 {
			m = -m
		}
		// x fully within [0, m-1] is its own remainder.
		if a.HasLo && a.Lo >= 0 && a.HasHi && a.Hi < m {
			return a
		}
	} else if b.HasLo && b.Lo >= 1 && b.HasHi {
		m = b.Hi
	} else if b.HasLo && b.Lo >= 1 {
		// Divisor >= 1, unbounded: |x % d| <= |x|.
		if a.HasLo && a.Lo >= 0 {
			r := Interval{HasLo: true, Lo: 0}
			if a.HasHi {
				r.HasHi, r.Hi = true, a.Hi
			}
			return r
		}
		return Top()
	} else {
		return Top()
	}
	switch {
	case a.HasLo && a.Lo >= 0:
		hi := m - 1
		if a.HasHi && a.Hi < hi {
			hi = a.Hi
		}
		return Range(0, hi)
	case a.HasHi && a.Hi <= 0:
		lo := -(m - 1)
		if a.HasLo && a.Lo > lo {
			lo = a.Lo
		}
		return Range(lo, 0)
	default:
		return Range(-(m - 1), m-1)
	}
}

// Comparisons evaluate to exactly 1 or 0 when the operands decide them,
// to [0, 1] otherwise, and to bottom when either operand is bottom.

// Lt is the interval of a < b.
func (a Interval) Lt(b Interval) Interval {
	switch {
	case a.Empty || b.Empty:
		return Bottom()
	case a.HasHi && b.HasLo && a.Hi < b.Lo:
		return Exact(1)
	case a.HasLo && b.HasHi && a.Lo >= b.Hi:
		return Exact(0)
	}
	return Range(0, 1)
}

// Le is the interval of a <= b.
func (a Interval) Le(b Interval) Interval {
	switch {
	case a.Empty || b.Empty:
		return Bottom()
	case a.HasHi && b.HasLo && a.Hi <= b.Lo:
		return Exact(1)
	case a.HasLo && b.HasHi && a.Lo > b.Hi:
		return Exact(0)
	}
	return Range(0, 1)
}

// Eq is the interval of a == b.
func (a Interval) Eq(b Interval) Interval {
	if a.Empty || b.Empty {
		return Bottom()
	}
	ca, oka := a.Const()
	cb, okb := b.Const()
	switch {
	case oka && okb && ca == cb:
		return Exact(1)
	case a.Meet(b).Empty:
		return Exact(0)
	}
	return Range(0, 1)
}

// Truth classifies a as a C condition: +1 when it excludes zero, -1 when
// it is exactly zero, 0 when undecided (bottom included).
func (a Interval) Truth() int {
	if c, ok := a.Const(); ok && c == 0 {
		return -1
	}
	if !a.Empty && !a.Contains(0) {
		return +1
	}
	return 0
}

// Trips brackets the iteration count of the counted loop
// `for (i = init; i < bound; i += step)` when step is positive, and of
// `for (i = init; i > bound; i += step)` when it is negative: bound is
// exclusive and the sign of step picks the direction. The count is
// max(0, ceil((bound - init) / step)), each end pairing the operands'
// extremes. A step that is not bounded away from zero, or an empty
// operand, leaves only AtLeast(0); so does an end whose arithmetic would
// overflow (the upper one is dropped, the lower one is 0).
func Trips(init, bound, step Interval) Interval {
	if step.Bounded() && step.Hi < 0 {
		// Counting down is counting up the mirrored loop.
		init, bound, step = init.Neg(), bound.Neg(), step.Neg()
	}
	r := AtLeast(0)
	if init.Empty || bound.Empty || !step.Bounded() || step.Lo <= 0 {
		return r
	}
	if bound.HasHi && init.HasLo {
		if d, ok := CheckedSub(bound.Hi, init.Lo); ok {
			r.HasHi, r.Hi = true, max(0, ceilDiv(d, step.Lo))
		}
	}
	if bound.HasLo && init.HasHi {
		if d, ok := CheckedSub(bound.Lo, init.Hi); ok {
			r.Lo = max(0, ceilDiv(d, step.Hi))
		}
	}
	return r
}

// ceilDiv returns ceil(a/b) for b > 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}
