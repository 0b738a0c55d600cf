package depend

// This file implements the carried-dependence test lattice. For an
// ordered access pair (f, g) to the same array and a candidate carrying
// loop L, the question is whether
//
//	addr_f(t, tau, inner_f) == addr_g(t + X, tau + sigma, inner_g)
//
// has a solution with the iteration distance X != 0 (or, for the
// cross-thread variant, with the thread-id difference sigma != 0 and X
// free), where L's ancestors hold the same iteration on both sides and
// every inner/disjoint loop index ranges freely over its trip space.
//
// With f and g affine this reduces to membership of A*X (+ Atid*sigma)
// in a polynomial interval I built from the subscript difference, the
// free-variable ranges and the access widths. The tests run from most
// to least precise:
//
//  1. strong SIV: no free terms, point interval => the distance folds
//     exactly (symbolically: A*X == D0 as polynomials), giving a proven
//     dependence with a constant distance — or a proven absence.
//  2. symbolic Banerjee: the interval ends are polynomials over the
//     runtime parameters (assumed non-negative); |A*X| outgrowing the
//     interval bounds a finite candidate set, and an empty set proves
//     absence even when nothing folds to a number (this is what keeps
//     the row-major GEMM seeds clean without knowing DIM).
//  3. thread-congruence: for omp thread-distributed loops the coupled
//     variable Y = s*X + sigma must satisfy a congruence mod s; when no
//     admissible Y survives, no two threads can collide.
//
// Anything outside the lattice answers vMay: sound, never optimistic.

// Solver verdicts.
const (
	vNone   = iota // dependence provably absent
	vProven        // dependence equation solved exactly
	vMay           // cannot disprove
)

type solveRes struct {
	verdict int
	// dists are the surviving values of X (g's iteration minus f's) when
	// the candidate set was enumerated; for vMay they are candidates
	// ("if the dependence exists, its distance is one of these"), for
	// vProven they are exact.
	dists []int64
	// allIters marks a proven dependence whose address ignores L
	// entirely: every iteration pair collides.
	allIters bool
}

const maxBeta = 64

// carriedAt runs the test for the pair (f, g) at loop L. thread selects
// the cross-thread variant. The overlap interval I is built in the
// walker's two scratch polys, cleared per call: no test keeps it past
// its return, so one pair of maps serves every pair of the nest.
func (w *walker) carriedAt(f, g *access, L *loopInfo, thread bool) solveRes {
	may := solveRes{verdict: vMay}
	if !f.sub.ok || !g.sub.ok {
		return may
	}
	// Ancestor loops hold the same iteration on both sides: their terms
	// cancel only when the coefficients agree.
	for p := L.parent; p != nil; p = p.parent {
		if !f.sub.coefOf(p).equal(g.sub.coefOf(p)) {
			return may
		}
	}
	A := f.sub.coefOf(L)
	if !A.equal(g.sub.coefOf(L)) {
		return may
	}
	if !f.tidOK || !g.tidOK || !f.tid.equal(g.tid) {
		return may
	}
	Atid := f.tid

	// Overlap of [addr_f, addr_f+wf-1] and [addr_g, addr_g+wg-1], after
	// substituting t_g = t_f + X and tau_g = tau_f + sigma:
	//   A*X + Atid*sigma  in  D0 + free + [-(wf-1), wg-1]  =: I
	// with D0 the tid-free base difference.
	I := interval{ok: true, lo: w.lo, hi: w.hi}
	clear(I.lo)
	clear(I.hi)
	I.lo.addScaled(f.rest, 1)
	I.lo.addScaled(g.rest, -1)
	I.hi.addScaled(I.lo, 1)
	nf, ok := addFree(I, f.sub, 1, L)
	if !ok {
		return may
	}
	ng, ok := addFree(I, g.sub, -1, L)
	if !ok {
		return may
	}
	I.lo[""] -= f.width - 1
	I.hi[""] += g.width - 1
	I.lo.dropZeros()
	I.hi.dropZeros()
	// A point interval is D0 itself: the tests below read it as I.lo.
	pointI := nf+ng == 0 && f.width == 1 && g.width == 1

	if !thread {
		if A.isZero() {
			return zivAt(I, pointI)
		}
		return solveExist(A, I, pointI, func(y int64) bool { return y != 0 })
	}
	// Cross-thread: sigma != 0, X free.
	if Atid.isZero() {
		if A.isZero() {
			return zivAt(I, pointI)
		}
		// Any X, including 0, collides two distinct threads.
		return solveExist(A, I, pointI, func(y int64) bool { return true })
	}
	var s int64
	if !A.isZero() {
		k, ok := A.constMultipleOf(Atid)
		if !ok {
			return may
		}
		s = k
	}
	res := solveExist(Atid, I, pointI, func(y int64) bool { return tidAdmissible(y, s, w.nt) })
	res.dists = nil // Y mixes sigma and X; no iteration distance to report
	return res
}

// addFree adds sign*sub's free terms to I and counts them. A free loop's
// index ranges over [0, last], so its term sign*c*[0, last] lands on hi
// when sign*c is non-negative and on lo when it is non-positive; a loop
// without a bound or a coefficient of mixed sign fails the test.
func addFree(I interval, sub aff, sign int64, L *loopInfo) (int, bool) {
	n := 0
	for l, c := range sub.coef {
		switch {
		case l.encloses(L):
			continue
		case !l.lastOK:
			return 0, false
		case c.nonNegTimes(sign):
			I.hi.addProduct(l.last, c, sign)
		case c.nonNegTimes(-sign):
			I.lo.addProduct(l.last, c, sign)
		default:
			return 0, false
		}
		n++
	}
	return n, true
}

// zivAt handles an address that does not vary with the carried
// variable: the dependence exists iff the residual can be zero, and
// when the residual is exactly zero every iteration pair collides.
func zivAt(I interval, pointI bool) solveRes {
	if !I.containsZero() {
		return solveRes{verdict: vNone}
	}
	if pointI && I.lo.isZero() {
		return solveRes{verdict: vProven, allIters: true}
	}
	return solveRes{verdict: vMay}
}

// tidAdmissible reports whether Y = s*X + sigma is reachable with
// sigma in ±[1, nt-1] and X any integer.
func tidAdmissible(y, s int64, nt int) bool {
	lim := int64(nt - 1)
	if lim <= 0 {
		return false // a single thread has no cross-thread pairs
	}
	if s == 0 {
		return y != 0 && abs64(y) <= lim
	}
	s0 := abs64(s)
	r := ((y % s0) + s0) % s0 // sigma ≡ y (mod s0), normalized to [0, s0)
	if r != 0 && r <= lim {
		return true
	}
	if r-s0 >= -lim { // r-s0 is in [-s0, -1]: nonzero unless r == s0 (impossible)
		return true
	}
	if r == 0 && s0 <= lim {
		return true // sigma = ±s0
	}
	return false
}

// solveExist decides existence of an admissible Y with coef*Y in I.
// pointI marks I as the exact point D0 = I.lo = I.hi (no free terms,
// scalar widths), where membership is symbolic equality and survivors
// are proven.
func solveExist(coef poly, I interval, pointI bool, admissible func(int64) bool) solveRes {
	may := solveRes{verdict: vMay}
	neg := false
	if !coef.isNonNeg() {
		if !coef.negate().isNonNeg() {
			return may // mixed-sign coefficient: magnitude unprovable
		}
		neg = true
	}
	pos := coef
	if neg {
		// coef*Y in I  <=>  |coef|*Y in -I; Y's sign flips back below.
		pos = coef.negate()
		I = interval{ok: I.ok, lo: I.hi.negate(), hi: I.lo.negate()}
	}
	beta := int64(-1)
	for b := int64(0); b <= maxBeta; b++ {
		m := pos.mulInt(b + 1)
		if provablyBelow(I.hi, m) && provablyBelow(m.negate(), I.lo) {
			beta = b
			break
		}
	}
	if beta < 0 {
		return may
	}
	var sols []int64
	exact := true
	for y := -beta; y <= beta; y++ {
		yy := y
		if neg {
			yy = -y
		}
		if !admissible(yy) {
			continue
		}
		m := pos.mulInt(y)
		if pointI {
			if m.equal(I.lo) {
				sols = append(sols, yy)
			}
			continue
		}
		// Keep y unless provably outside I.
		if provablyBelow(m, I.lo) || provablyBelow(I.hi, m) {
			continue
		}
		sols = append(sols, yy)
		// Membership (not just non-exclusion) is decidable when
		// everything folds to numbers.
		mc, ok1 := m.constVal()
		lc, ok2 := I.lo.constVal()
		hc, ok3 := I.hi.constVal()
		if !(ok1 && ok2 && ok3 && lc <= mc && mc <= hc) {
			exact = false
		}
	}
	if len(sols) == 0 {
		return solveRes{verdict: vNone}
	}
	if pointI || exact {
		return solveRes{verdict: vProven, dists: sols}
	}
	return solveRes{verdict: vMay, dists: sols}
}
