package depend

// The solver as it stood before the scratch interval, kept as the oracle
// the production solver is held against: carriedAt and iterLast
// materialised every intermediate polynomial (an ancestor map per call,
// an iteration bound per free loop and pair, cloned interval sums), and
// assemble/loopDeps drove them with a formatted dedup key. When
// polynomials became term slices over a per-run algebra the oracle was
// ported onto them operation for operation (each map method became the
// algebra's method of the same name); it still builds every sum and
// difference the production solver only reads through comb.
// TestSolverMatchesOracle and FuzzDepend check that every (pair, loop,
// thread variant) verdict and every whole report agree. The IR front
// end's carryCycle is held the same way against its map-based self.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"paravis/internal/absint"
	"paravis/internal/ir"
	"paravis/internal/lower"
	"paravis/internal/minic"
	"paravis/internal/schedule"
	"paravis/internal/workloads"
)

// oracleCarriedAt runs the test for the pair (f, g) at loop L of w's
// walk. thread selects the cross-thread variant.
func oracleCarriedAt(w *walker, f, g *access, L *loopInfo, thread bool) solveRes {
	al, nt := &w.al, w.nt
	may := solveRes{verdict: vMay}
	if !f.sub.ok || !g.sub.ok {
		return may
	}
	anc := map[int]bool{}
	for p := L.parent; p != nil; p = p.parent {
		anc[p.id] = true
	}
	// Ancestor loops hold the same iteration on both sides: their terms
	// cancel only when the coefficients agree.
	for p := range anc {
		if !f.sub.coefOf(p).equal(g.sub.coefOf(p)) {
			return may
		}
	}
	A := f.sub.coefOf(L.id)
	if !A.equal(g.sub.coefOf(L.id)) {
		return may
	}
	fRest, fTid, ok1 := al.tidSplit(f.sub.base)
	gRest, gTid, ok2 := al.tidSplit(g.sub.base)
	if !ok1 || !ok2 || !fTid.equal(gTid) {
		return may
	}
	Atid := fTid
	D0 := al.sub(fRest, gRest)

	// Free variables: loops below L or in disjoint subtrees; each index
	// ranges over [0, iterLast].
	free := interval{ok: true}
	nFree := 0
	addFree := func(sub aff, negate bool) bool {
		for l2, c := range sub.coef {
			if c.isZero() || l2 == L.id || anc[l2] {
				continue
			}
			u, ok := oracleIterLast(al, w.allLoops[l2])
			if !ok {
				return false
			}
			if negate {
				c = al.negate(c)
			}
			term := oracleMulPoly(al, interval{ok: true, hi: u}, c)
			if !term.ok {
				return false
			}
			free = oracleAdd(al, free, term)
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
	I := oracleWiden(al, oracleAdd(al, intervalPoint(D0), free), -(f.width - 1), g.width-1)
	pointI := nFree == 0 && f.width == 1 && g.width == 1

	if !thread {
		if A.isZero() {
			return oracleZivAt(al, I, D0, pointI)
		}
		return oracleSolveExist(al, A, I, pointI, D0, func(y int64) bool { return y != 0 })
	}
	// Cross-thread: sigma != 0, X free.
	if Atid.isZero() {
		if A.isZero() {
			return oracleZivAt(al, I, D0, pointI)
		}
		// Any X, including 0, collides two distinct threads.
		return oracleSolveExist(al, A, I, pointI, D0, func(y int64) bool { return true })
	}
	var s int64
	if !A.isZero() {
		k, ok := A.constMultipleOf(Atid)
		if !ok {
			return may
		}
		s = k
	}
	res := oracleSolveExist(al, Atid, I, pointI, D0, func(y int64) bool { return tidAdmissible(y, s, nt) })
	res.dists = nil // Y mixes sigma and X; no iteration distance to report
	return res
}

// oracleZivAt handles an address that does not vary with the carried
// variable: the dependence exists iff the residual can be zero, and
// when the residual is exactly zero every iteration pair collides.
func oracleZivAt(al *algebra, I interval, D0 poly, pointI bool) solveRes {
	if !oracleContainsZero(al, I) {
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

// oracleSolveExist decides existence of an admissible Y with coef*Y in I.
// pointI marks I as the exact point D0 (no free terms, scalar widths),
// where membership is symbolic equality and survivors are proven.
func oracleSolveExist(al *algebra, coef poly, I interval, pointI bool, D0 poly, admissible func(int64) bool) solveRes {
	may := solveRes{verdict: vMay}
	neg := false
	if !coef.isNonNeg() {
		if !al.negate(coef).isNonNeg() {
			return may // mixed-sign coefficient: magnitude unprovable
		}
		neg = true
	}
	pos := coef
	if neg {
		// coef*Y in I  <=>  |coef|*Y in -I; Y's sign flips back below.
		pos = al.negate(coef)
		I = interval{ok: I.ok, lo: al.negate(I.hi), hi: al.negate(I.lo)}
		D0 = al.negate(D0)
	}
	beta := int64(-1)
	for b := int64(0); b <= maxBeta; b++ {
		m := al.mulInt(pos, b+1)
		if oracleBelow(al, I.hi, m) && oracleBelow(al, al.negate(m), I.lo) {
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
		m := al.mulInt(pos, y)
		if pointI {
			if m.equal(D0) {
				sols = append(sols, yy)
			}
			continue
		}
		// Keep y unless provably outside I.
		if oracleBelow(al, m, I.lo) || oracleBelow(al, I.hi, m) {
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

// oracleBelow reports x < y for all x <= hi when the gap y - hi is
// provably >= 1.
func oracleBelow(al *algebra, hi, y poly) bool {
	return al.sub(al.sub(y, hi), al.constant(1)).isNonNeg()
}

// oracleContainsZero reports whether 0 may lie in the interval: it
// returns false only when the interval is provably strictly positive or
// strictly negative.
func oracleContainsZero(al *algebra, iv interval) bool {
	if !iv.ok {
		return true
	}
	if al.sub(iv.lo, al.constant(1)).isNonNeg() { // lo >= 1
		return false
	}
	if al.sub(al.negate(iv.hi), al.constant(1)).isNonNeg() { // hi <= -1
		return false
	}
	return true
}

// oracleIterLast returns a polynomial upper bound U on the loop's last
// iteration index (t <= U). It is exact for unit steps and conservative
// (value-span based) otherwise, which is sound: a larger iteration
// range only widens intervals.
func oracleIterLast(al *algebra, l *loopInfo) (poly, bool) {
	if !l.hasIV || !l.hasBnd || !l.init.isInvariant() || !l.bound.isInvariant() {
		return nil, false
	}
	span := al.sub(al.sub(l.bound.base, l.init.base), al.constant(1))
	if l.step < 0 {
		span = al.sub(al.sub(l.init.base, l.bound.base), al.constant(1))
	}
	// The tid pseudo-symbol in a bound would make the span per-thread;
	// substitute its worst case (tid >= 0 keeps the span an upper
	// bound when the tid coefficient is <= 0, i.e. "start at my_id").
	if al.hasTid(span) {
		rest, tidCoef, ok := al.tidSplit(span)
		if !ok || !al.negate(tidCoef).isNonNeg() {
			return nil, false
		}
		span = rest // tid term <= 0: dropping it can only increase span
	}
	step := l.step
	if step < 0 {
		step = -step
	}
	if step > 1 {
		if span.divisibleBy(step) {
			span = al.divInt(span, step)
		} else if c, ok := span.constVal(); ok {
			span = al.constant(c / step)
		}
		// Otherwise keep the value span: t <= span since step >= 1.
	}
	return span, true
}

func intervalPoint(p poly) interval { return interval{ok: true, lo: p, hi: p} }

func oracleAdd(al *algebra, iv, o interval) interval {
	if !iv.ok || !o.ok {
		return interval{}
	}
	return interval{ok: true, lo: al.add(iv.lo, o.lo), hi: al.add(iv.hi, o.hi)}
}

func oracleWiden(al *algebra, iv interval, loExtra, hiExtra int64) interval {
	if !iv.ok {
		return iv
	}
	return interval{ok: true, lo: al.add(iv.lo, al.constant(loExtra)), hi: al.add(iv.hi, al.constant(hiExtra))}
}

// oracleMulPoly scales an interval by a polynomial of known sign.
func oracleMulPoly(al *algebra, iv interval, p poly) interval {
	if !iv.ok {
		return iv
	}
	switch {
	case p.isNonNeg():
		return interval{ok: true, lo: al.mul(iv.lo, p), hi: al.mul(iv.hi, p)}
	case al.negate(p).isNonNeg():
		return interval{ok: true, lo: al.mul(iv.hi, p), hi: al.mul(iv.lo, p)}
	}
	return interval{}
}

// oracleAssemble builds the per-loop report from the collected accesses.
func oracleAssemble(w *walker) *Report {
	rep := &Report{}
	for _, l := range w.allLoops {
		ld := &LoopDeps{
			Name:       l.name,
			Line:       l.pos.Line,
			Col:        l.pos.Col,
			Depth:      l.depth,
			Unroll:     l.unroll,
			ThreadLoop: l.threadLoop,
			Affine:     true,
		}
		// Accesses whose innermost loop is l, with their per-iteration
		// stride.
		for _, a := range w.accs {
			if len(a.loops) == 0 || a.loops[len(a.loops)-1] != l {
				continue
			}
			acc := Access{
				Array: a.arr.name, DRAM: a.arr.dram, Write: a.write,
				Width: int(a.width), Affine: a.sub.ok,
				Line: a.pos.Line, Col: a.pos.Col,
			}
			if a.sub.ok {
				if c, ok := a.sub.coefOf(l.id).constVal(); ok {
					acc.Stride, acc.StrideKnown = c, true
				}
			}
			ld.Accesses = append(ld.Accesses, acc)
		}
		under := w.accessesUnder(l)
		for _, a := range under {
			if !a.sub.ok {
				ld.Affine = false
			}
		}
		ld.Deps = oracleLoopDeps(w, l, under)
		ld.Legal = legality(ld)
		rep.Loops = append(rep.Loops, ld)
	}
	sort.SliceStable(rep.Loops, func(i, j int) bool {
		a, b := rep.Loops[i], rep.Loops[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return rep
}

// oracleLoopDeps runs the carried tests for every same-array access pair
// under l, and the cross-thread test when l distributes iterations over
// omp threads.
func oracleLoopDeps(w *walker, l *loopInfo, under []*access) []Dep {
	seen := map[string]bool{}
	var deps []Dep
	addDep := func(d Dep) {
		key := fmt.Sprintf("%s|%s|%v|%v|%d|%v|%v", d.Array, d.Kind, d.Carried, d.DistKnown, d.Distance, d.CrossThread, d.Proven)
		if !seen[key] {
			seen[key] = true
			deps = append(deps, d)
		}
	}
	for i, f := range under {
		for j := i; j < len(under); j++ {
			g := under[j]
			if f.arr != g.arr || (!f.write && !g.write) {
				continue
			}
			if d, ok := classify(f, g, w.refineMay(f, g, oracleCarriedAt(w, f, g, l, false)), false); ok {
				addDep(d)
			}
			// Cross-thread: only mapped DRAM arrays are shared between
			// threads (locals are per-thread BRAM), and accesses inside
			// a critical section are mutex-ordered — the race checker
			// owns those.
			if l.threadLoop && f.arr.dram && !(f.critical && g.critical) {
				if d, ok := classify(f, g, w.refineMay(f, g, oracleCarriedAt(w, f, g, l, true)), true); ok {
					addDep(d)
				}
			}
		}
	}
	sort.SliceStable(deps, func(i, j int) bool {
		a, b := deps[i], deps[j]
		if a.Array != b.Array {
			return a.Array < b.Array
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.CrossThread != b.CrossThread {
			return !a.CrossThread
		}
		return a.Distance < b.Distance
	})
	return deps
}

// compareOracle walks fn once under env and ranges, then holds every
// ordered access pair under every loop, in both thread variants, and
// the assembled report against the oracle.
func compareOracle(t *testing.T, label string, fn *minic.FuncDecl, env map[string]int64, ranges RangeFn) {
	t.Helper()
	ts := minic.TargetOf(fn)
	nt := ts.NumThreads
	if nt <= 0 {
		nt = 1
	}
	w := newWalker(fn, nt, env)
	w.ranges = ranges
	w.block(ts.Body)
	for _, l := range w.allLoops {
		under := w.accessesUnder(l)
		for _, f := range under {
			for _, g := range under {
				for _, thread := range []bool{false, true} {
					got := w.carriedAt(f, g, l, thread)
					want := oracleCarriedAt(w, f, g, l, thread)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: %s: %s@%s vs %s@%s thread=%v: solver %+v, oracle %+v",
							label, l.name, f.arr.name, f.pos, g.arr.name, g.pos, thread, got, want)
					}
				}
			}
		}
	}
	if got, want := w.assemble(), oracleAssemble(w); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: report differs from the oracle's\n got %+v\nwant %+v", label, got.Loops, want.Loops)
	}
}

// compareOracleAll runs compareOracle without ranges and with the
// abstract interpreter's, symbolically, with every scalar parameter at
// 8, and under each given environment.
func compareOracleAll(t *testing.T, label string, fn *minic.FuncDecl, envs ...map[string]int64) {
	t.Helper()
	small := map[string]int64{}
	for _, p := range fn.Params {
		if !p.Type.IsPointer() {
			small[p.Name] = 8
		}
	}
	for i, env := range append([]map[string]int64{nil, small}, envs...) {
		l := fmt.Sprintf("%s/env%d", label, i)
		compareOracle(t, l, fn, env, nil)
		compareOracle(t, l+"/ranges", fn, env, absint.Analyze(fn, absint.Options{Env: env}).IndexRange)
	}
}

// checkSmallConsts fails when an entry of the shared constant table no
// longer holds its value: something wrote through a polyConst result.
func checkSmallConsts(t *testing.T) {
	t.Helper()
	for i, p := range smallConsts {
		c := int64(i - 16)
		if (c == 0 && p != nil) || (c != 0 && !p.equal(poly{{0, c}})) {
			t.Fatalf("shared constant %d now reads %v", c, p)
		}
	}
}

// oracleProgram is one parsed corpus entry with the environment it
// runs under besides the symbolic one.
type oracleProgram struct {
	name string
	prog *minic.Program
	fn   *minic.FuncDecl
	env  map[string]int64
}

// oracleCorpus parses the seed units, the example kernels, the
// staticcheck fixtures and this package's fixtures.
func oracleCorpus(t *testing.T) []oracleProgram {
	type source struct {
		name, src string
		defines   map[string]string
		env       map[string]int64
	}
	var srcs []source
	for _, u := range workloads.Units() {
		srcs = append(srcs, source{"seed/" + u.Name, u.Source, u.Defines, u.Params})
	}
	examples, _ := filepath.Glob("../../examples/*/*.mc")
	fixtures, _ := filepath.Glob("../staticcheck/testdata/*.mc")
	if len(examples) < 3 || len(fixtures) < 10 {
		t.Fatalf("corpus went missing: %d examples, %d fixtures", len(examples), len(fixtures))
	}
	for _, f := range append(examples, fixtures...) {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, source{name: f, src: string(src)})
	}
	srcs = append(srcs, []source{
		{"stencil", stencilSrc, nil, map[string]int64{"n": 9}},
		{"anti", antiSrc, nil, map[string]int64{"n": 8}},
		{"ziv", zivSrc, nil, map[string]int64{"n": 6}},
		{"thread-shift", threadShiftSrc, nil, map[string]int64{"n": 11}},
		{"thread-clean", threadCleanSrc, nil, map[string]int64{"n": 10}},
		{"mini-gemm", miniGEMMSrc, nil, map[string]int64{"D": 4}},
		{"triangular", triangularSrc, nil, map[string]int64{"n": 6}},
		{"div-fold", divFoldSrc, nil, map[string]int64{"n": 16}},
		{"strided", stridedSrc, nil, map[string]int64{"n": 8}},
		{"dist3", dist3Src, nil, map[string]int64{"n": 12}},
		{"predicated", predicatedSrc, nil, map[string]int64{"n": 7}},
		{"disjoint", disjointSrc, nil, map[string]int64{"n": 16}},
		{"lane-store", laneStoreSrc, nil, map[string]int64{"n": 12}},
		{"compound-scalar", compoundScalarSrc, nil, map[string]int64{"n": 8}},
	}...)
	var out []oracleProgram
	for _, s := range srcs {
		prog, err := minic.Parse(s.src, minic.Options{Defines: s.defines})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		fn, _, err := minic.FindTarget(prog)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		out = append(out, oracleProgram{s.name, prog, fn, s.env})
	}
	return out
}

// TestSolverMatchesOracle runs the solver comparison over the corpus,
// then checks the shared constants survived all of it.
func TestSolverMatchesOracle(t *testing.T) {
	for _, p := range oracleCorpus(t) {
		compareOracleAll(t, p.name, p.fn, p.env)
	}
	checkSmallConsts(t)
}

// oracleCarryCycle is carryCycle as it was before its dense scratch:
// three maps per carry and a two-pass longest-path search.
func oracleCarryCycle(g *ir.Graph, i int, upd *ir.Node, lat func(*ir.Node) int) *ScalarRec {
	// onCycle: nodes whose value transitively uses carry i.
	onCycle := make(map[*ir.Node]bool)
	for _, n := range g.Nodes { // topological order
		if n.Op == ir.OpCarry && n.Idx == i {
			onCycle[n] = true
			continue
		}
		for _, a := range n.Args {
			if onCycle[a] {
				onCycle[n] = true
				break
			}
		}
	}
	if !onCycle[upd] {
		return nil
	}
	// Longest-latency DP along onCycle edges; carry reads cost 0.
	dist := make(map[*ir.Node]int)
	from := make(map[*ir.Node]*ir.Node)
	for _, n := range g.Nodes {
		if !onCycle[n] {
			continue
		}
		if n.Op == ir.OpCarry && n.Idx == i {
			dist[n] = 0
			continue
		}
		best, bestFrom := -1, (*ir.Node)(nil)
		for _, a := range n.Args {
			if d, ok := dist[a]; ok && d > best {
				best, bestFrom = d, a
			}
		}
		if best < 0 {
			continue
		}
		dist[n] = best + lat(n)
		from[n] = bestFrom
	}
	total, ok := dist[upd]
	if !ok || total <= 0 {
		return nil
	}
	var path []*ir.Node
	for n := upd; n != nil; n = from[n] {
		path = append(path, n)
	}
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return &ScalarRec{Carry: i, Lat: total, Path: path}
}

// TestRecurrencesMatchOracle lowers and schedules every corpus program
// that builds and holds each graph's scalar recurrences, under the
// schedule's latencies, against oracleCarryCycle.
func TestRecurrencesMatchOracle(t *testing.T) {
	recs := 0
	for _, p := range oracleCorpus(t) {
		k, err := lower.Lower(p.prog)
		if err != nil {
			continue // a fixture for a build diagnostic
		}
		s, err := schedule.Build(k, schedule.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		lat := func(n *ir.Node) int { return s.Lat[n.ID] }
		kd := AnalyzeKernel(k, p.env, lat)
		for _, g := range k.CollectGraphs() {
			var want []ScalarRec
			for i, upd := range g.CarryUpdate {
				if rec := oracleCarryCycle(g, i, upd, lat); rec != nil {
					want = append(want, *rec)
				}
			}
			if got := kd.ByGraph[g].Scalar; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: graph %s: recurrences %+v, oracle %+v", p.name, g.Name, got, want)
			}
			recs += len(want)
		}
	}
	if recs < 10 {
		t.Errorf("the corpus exercised only %d scalar recurrences", recs)
	}
}
