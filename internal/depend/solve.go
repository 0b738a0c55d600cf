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
// the cross-thread variant; nt is the omp thread count.
func carriedAt(f, g *access, L *loopInfo, thread bool, nt int) solveRes {
	may := solveRes{verdict: vMay}
	if !f.sub.ok || !g.sub.ok {
		return may
	}
	anc := map[*loopInfo]bool{}
	for p := L.parent; p != nil; p = p.parent {
		anc[p] = true
	}
	// Ancestor loops hold the same iteration on both sides: their terms
	// cancel only when the coefficients agree.
	for p := range anc {
		if !f.sub.coefOf(p).equal(g.sub.coefOf(p)) {
			return may
		}
	}
	A := f.sub.coefOf(L)
	if !A.equal(g.sub.coefOf(L)) {
		return may
	}
	fRest, fTid, ok1 := f.sub.base.tidSplit()
	gRest, gTid, ok2 := g.sub.base.tidSplit()
	if !ok1 || !ok2 || !fTid.equal(gTid) {
		return may
	}
	Atid := fTid
	D0 := fRest.sub(gRest)

	// Free variables: loops below L or in disjoint subtrees; each index
	// ranges over [0, iterLast].
	free := interval{ok: true}
	nFree := 0
	addFree := func(sub aff, negate bool) bool {
		for l2, c := range sub.coef {
			if l2 == L || anc[l2] {
				continue
			}
			u, ok := l2.iterLast()
			if !ok {
				return false
			}
			if negate {
				c = c.negate()
			}
			term := interval{ok: true, hi: u}.mulPoly(c)
			if !term.ok {
				return false
			}
			free = free.add(term)
			nFree++
		}
		return true
	}
	if !addFree(f.sub, false) || !addFree(g.sub, true) {
		return may
	}

	// Overlap of [addr_f, addr_f+wf-1] and [addr_g, addr_g+wg-1], after
	// substituting t_g = t_f + X and tau_g = tau_f + sigma:
	//   A*X + Atid*sigma  in  D0 + free + [-(wf-1), wg-1]  =: I
	I := intervalPoint(D0).add(free).widen(-(f.width - 1), g.width-1)
	pointI := nFree == 0 && f.width == 1 && g.width == 1

	if !thread {
		if A.isZero() {
			return zivAt(I, D0, pointI)
		}
		return solveExist(A, I, pointI, D0, func(y int64) bool { return y != 0 })
	}
	// Cross-thread: sigma != 0, X free.
	if Atid.isZero() {
		if A.isZero() {
			return zivAt(I, D0, pointI)
		}
		// Any X, including 0, collides two distinct threads.
		return solveExist(A, I, pointI, D0, func(y int64) bool { return true })
	}
	var s int64
	if !A.isZero() {
		k, ok := A.constMultipleOf(Atid)
		if !ok {
			return may
		}
		s = k
	}
	res := solveExist(Atid, I, pointI, D0, func(y int64) bool { return tidAdmissible(y, s, nt) })
	res.dists = nil // Y mixes sigma and X; no iteration distance to report
	return res
}

// zivAt handles an address that does not vary with the carried
// variable: the dependence exists iff the residual can be zero, and
// when the residual is exactly zero every iteration pair collides.
func zivAt(I interval, D0 poly, pointI bool) solveRes {
	if !I.containsZero() {
		return solveRes{verdict: vNone}
	}
	if pointI {
		if z, ok := D0.constVal(); ok && z == 0 {
			return solveRes{verdict: vProven, allIters: true}
		}
		if D0.isZero() {
			return solveRes{verdict: vProven, allIters: true}
		}
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
// pointI marks I as the exact point D0 (no free terms, scalar widths),
// where membership is symbolic equality and survivors are proven.
func solveExist(coef poly, I interval, pointI bool, D0 poly, admissible func(int64) bool) solveRes {
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
		D0 = D0.negate()
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
			if m.equal(D0) {
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
