package absint

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"paravis/internal/interval"
	"paravis/internal/minic"
	"paravis/internal/workloads"
)

func analyzeSrc(t *testing.T, src string, env map[string]int64) *Result {
	t.Helper()
	prog, err := minic.Parse(src, minic.Options{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(prog.Funcs) == 0 {
		t.Fatalf("no functions")
	}
	res := Analyze(prog.Funcs[0], Options{Env: env})
	if !res.OK {
		t.Fatalf("solver did not converge")
	}
	return res
}

func loopAt(t *testing.T, res *Result, src, marker string) *LoopFact {
	t.Helper()
	line := 0
	for i, l := range strings.Split(src, "\n") {
		if strings.Contains(l, marker) {
			line = i + 1
			break
		}
	}
	if line == 0 {
		t.Fatalf("marker %q not in source", marker)
	}
	for _, lf := range res.Loops {
		if lf.Pos.Line == line {
			return lf
		}
	}
	t.Fatalf("no loop fact on line %d (marker %q)", line, marker)
	return nil
}

func accessAt(t *testing.T, res *Result, src, marker, arr string) *AccessFact {
	t.Helper()
	line := 0
	for i, l := range strings.Split(src, "\n") {
		if strings.Contains(l, marker) {
			line = i + 1
			break
		}
	}
	if line == 0 {
		t.Fatalf("marker %q not in source", marker)
	}
	for _, f := range res.Accesses {
		if f.Pos.Line == line && f.Array == arr {
			return f
		}
	}
	t.Fatalf("no access fact for %s on line %d (marker %q); have %v", arr, line, marker, res.Accesses)
	return nil
}

// --- domain unit tests ---

func TestCongruence(t *testing.T) {
	// x ≡ 0 (mod 4) joined with x ≡ 2 (mod 4) gives mod 2.
	j := congMod(4, 0).join(congMod(4, 2))
	if j.Mod != 2 || j.Rem != 0 {
		t.Errorf("join = %+v", j)
	}
	// 4k + 1 stays odd through the product domain.
	v := exactVal(4).mul(topVal()).add(exactVal(1))
	if v.C.Mod != 4 || v.C.Rem != 1 {
		t.Errorf("4k+1 congruence = %+v", v.C)
	}
	// Reduction tightens interval ends to congruence members.
	r := reduce(Val{I: interval.Range(1, 10), C: congMod(4, 0)})
	if r.I.Lo != 4 || r.I.Hi != 8 {
		t.Errorf("reduced = %+v", r.I)
	}
	// Disjoint congruence and interval is bottom.
	if !reduce(Val{I: interval.Range(1, 3), C: congMod(8, 5)}).isBottom() {
		t.Errorf("expected bottom")
	}
}

// TestWidenThenNarrow checks the product domain widens only its interval
// half: a growing bound snaps to the next threshold (or, past the last,
// is dropped) while the congruence is kept, and meeting the widened value
// with a guard narrows it back to a congruence member.
func TestWidenThenNarrow(t *testing.T) {
	th := []int64{0, 10}
	even := func(lo, hi int64) Val { return reduce(Val{I: interval.Range(lo, hi), C: congMod(2, 0)}) }
	w := even(0, 2).widen(even(0, 4), th)
	if !w.I.HasHi || w.I.Hi != 10 || w.C != congMod(2, 0) {
		t.Errorf("widen to threshold = %+v", w)
	}
	if n := w.meet(intervalVal(interval.AtMost(7))); !n.I.Bounded() || n.I.Lo != 0 || n.I.Hi != 6 {
		t.Errorf("narrowed = %+v, want [0, 6]", n.I)
	}
	if w = even(0, 10).widen(even(0, 12), th); w.I.HasHi || w.C != congMod(2, 0) {
		t.Errorf("widen past last threshold should drop the bound only: %+v", w)
	}
}

// --- whole-program facts ---

const tripSrc = `
void f(int n) {
  int s = 0;
  for (int i = 0; i < 16; i++) {
    s = s + i;
  }
  for (int j = 10; j > 0; j -= 2) {
    s = s + j;
  }
  for (int k = 0; k < n; k++) {
    s = s + k;
  }
}
`

func TestTripCounts(t *testing.T) {
	res := analyzeSrc(t, tripSrc, nil)
	lf := loopAt(t, res, tripSrc, "i = 0")
	if !lf.Trips.Bounded() || lf.Trips.Lo != 16 || lf.Trips.Hi != 16 {
		t.Errorf("constant loop trips = %+v", lf.Trips)
	}
	lf = loopAt(t, res, tripSrc, "j = 10")
	if !lf.Trips.Bounded() || lf.Trips.Lo != 5 || lf.Trips.Hi != 5 {
		t.Errorf("down-counting trips = %+v", lf.Trips)
	}
	lf = loopAt(t, res, tripSrc, "k = 0")
	if lf.Trips.HasHi {
		t.Errorf("symbolic bound should have no upper trip bound: %+v", lf.Trips)
	}
	if !lf.Trips.HasLo || lf.Trips.Lo != 0 {
		t.Errorf("symbolic bound lower = %+v", lf.Trips)
	}
}

func TestTripCountsWithEnv(t *testing.T) {
	res := analyzeSrc(t, tripSrc, map[string]int64{"n": 7})
	lf := loopAt(t, res, tripSrc, "k = 0")
	if !lf.Trips.Bounded() || lf.Trips.Lo != 7 || lf.Trips.Hi != 7 {
		t.Errorf("env-bound trips = %+v", lf.Trips)
	}
	hints := res.TripHints()
	if len(hints) != 3 {
		t.Errorf("hints = %v", hints)
	}
}

const strideSrc = `
void f(float* out) {
  #pragma omp target parallel num_threads(4) map(from: out[0:16])
  {
    int tid = omp_get_thread_num();
    int nth = omp_get_num_threads();
    float acc[16];
    for (int i = tid; i < 16; i += nth) {
      acc[i] = 1.0;
    }
  }
}
`

func TestDistributedLoop(t *testing.T) {
	res := analyzeSrc(t, strideSrc, nil)
	lf := loopAt(t, res, strideSrc, "i = tid")
	// init in [0,3], step 4, bound 16: per-thread trips exactly 4.
	if !lf.Trips.Bounded() || lf.Trips.Lo != 4 || lf.Trips.Hi != 4 {
		t.Errorf("distributed trips = %+v", lf.Trips)
	}
	f := accessAt(t, res, strideSrc, "acc[i]", "acc")
	if f.Verdict != InBounds {
		t.Errorf("acc[i] verdict = %v (index %+v)", f.Verdict, f.Index)
	}
}

const laneSrc = `
void f(int n) {
  VECTOR a[15];
  for (int v = 0; v < 60; v++) {
    a[v / 4][v % 4] = 0.0;
  }
}
`

func TestLaneCongruencePrecision(t *testing.T) {
	res := analyzeSrc(t, laneSrc, nil)
	f := accessAt(t, res, laneSrc, "a[v / 4]", "a")
	if f.Verdict != InBounds {
		t.Errorf("lane access verdict = %v (dim %d size %d index %+v)",
			f.Verdict, f.BadDim, f.DimSize, f.Index)
	}
	// The element access covers words [Elem, Elem+Width-1]: (v/4)*4 with
	// the mod-4 congruence gives [0,56], width 4 — exactly depend's view.
	if !f.ElemOK || !f.Elem.Bounded() || f.Elem.Lo != 0 || f.Elem.Hi != 56 || f.Width != 4 {
		t.Errorf("flattened elem = %+v width %d", f.Elem, f.Width)
	}
	// The lane subscript itself is checked on the VecElem node.
	var lane *AccessFact
	for _, af := range res.Accesses {
		if _, ok := af.Node.(*minic.VecElem); ok {
			lane = af
		}
	}
	if lane == nil || lane.Verdict != InBounds {
		t.Errorf("lane verdict = %+v", lane)
	}
}

const oobSrc = `
void f(int n) {
  float a[8];
  for (int i = 0; i <= 8; i++) {
    a[i] = 0.0;
  }
  a[8] = 1.0;
  if (n > 5) {
    a[n] = 2.0;
  }
}
`

func TestOOBVerdicts(t *testing.T) {
	res := analyzeSrc(t, oobSrc, nil)
	f := accessAt(t, res, oobSrc, "a[i]", "a")
	if f.Verdict != MayOOB {
		t.Errorf("a[i] verdict = %v", f.Verdict)
	}
	f = accessAt(t, res, oobSrc, "a[8] = 1.0", "a")
	if f.Verdict != OOB {
		t.Errorf("a[8] verdict = %v", f.Verdict)
	}
	f = accessAt(t, res, oobSrc, "a[n]", "a")
	if f.Verdict != MayOOB {
		t.Errorf("a[n] under n>5 verdict = %v (index %+v)", f.Verdict, f.Index)
	}
}

const refineSrc = `
void f(int n) {
  float a[8];
  if (n >= 0) {
    if (n < 8) {
      a[n] = 1.0;
    }
  }
  if (n == 3) {
    a[n] = 2.0;
  }
}
`

func TestBranchRefinement(t *testing.T) {
	res := analyzeSrc(t, refineSrc, nil)
	f := accessAt(t, res, refineSrc, "a[n] = 1.0", "a")
	if f.Verdict != InBounds {
		t.Errorf("guarded a[n] verdict = %v (index %+v)", f.Verdict, f.Index)
	}
	f = accessAt(t, res, refineSrc, "a[n] = 2.0", "a")
	if f.Verdict != InBounds {
		t.Errorf("n==3 a[n] verdict = %v (index %+v)", f.Verdict, f.Index)
	}
}

const deadSrc = `
void f(int n) {
  int c = 4;
  if (c < 2) {
    n = 1;
  }
  for (int i = 0; i < c; i++) {
    if (i >= 0) {
      n = n + i;
    }
  }
  for (int j = 5; j < 3; j++) {
    n = n + j;
  }
}
`

func TestDeadBranches(t *testing.T) {
	res := analyzeSrc(t, deadSrc, nil)
	var falseIf, trueIf, deadLoop bool
	for _, cf := range res.Conds {
		switch {
		case !cf.IsLoop && cf.AlwaysFalse:
			falseIf = true
		case !cf.IsLoop && cf.AlwaysTrue:
			trueIf = true
		case cf.IsLoop && cf.AlwaysFalse:
			deadLoop = true
		}
	}
	if !falseIf {
		t.Errorf("c<2 not proven always false: %+v", res.Conds)
	}
	if !trueIf {
		t.Errorf("i>=0 not proven always true: %+v", res.Conds)
	}
	if !deadLoop {
		t.Errorf("j loop not proven body-dead: %+v", res.Conds)
	}
	lf := loopAt(t, res, deadSrc, "j = 5")
	if lf.BodyReachable {
		t.Errorf("dead loop body marked reachable")
	}
	if c, ok := lf.Trips.Const(); !ok || c != 0 {
		t.Errorf("dead loop trips = %+v", lf.Trips)
	}
}

const divSrc = `
void f(int n) {
  int z = 0;
  int a = 10 / z;
  int tid = 0;
  #pragma omp target parallel num_threads(4) map(to: n)
  {
    int t = omp_get_thread_num();
    int b = 100 / t;
    int c = 100 / n;
  }
}
`

func TestDivFacts(t *testing.T) {
	res := analyzeSrc(t, divSrc, nil)
	var proven, may, silent int
	for _, d := range res.Divs {
		switch {
		case d.ProvenZero:
			proven++
		case d.MayZero:
			may++
		default:
			silent++
		}
	}
	if proven != 1 || may != 1 || silent != 1 {
		t.Errorf("div facts proven=%d may=%d silent=%d (%+v)", proven, may, silent, res.Divs)
	}
}

const windowSrc = `
void f(float* p) {
  #pragma omp target parallel num_threads(1) map(tofrom: p[0:8])
  {
    for (int i = 0; i < 8; i++) {
      p[i] = p[i] + 1.0;
    }
    p[9] = 0.0;
  }
}
`

func TestMappedWindow(t *testing.T) {
	res := analyzeSrc(t, windowSrc, nil)
	f := accessAt(t, res, windowSrc, "p[i] = p[i]", "p")
	if f.Verdict != InBounds {
		t.Errorf("p[i] verdict = %v (index %+v)", f.Verdict, f.Index)
	}
	f = accessAt(t, res, windowSrc, "p[9]", "p")
	if f.Verdict != OOB {
		t.Errorf("p[9] verdict = %v", f.Verdict)
	}
}

const unreachableLoopSrc = `
void f(int n) {
  int on = 0;
  if (on) {
    for (int i = 0; i < 4; i++) {
      n = n + i;
    }
  }
}
`

func TestUnreachableLoop(t *testing.T) {
	res := analyzeSrc(t, unreachableLoopSrc, nil)
	lf := loopAt(t, res, unreachableLoopSrc, "i = 0")
	if lf.Reachable {
		t.Errorf("loop inside if(0) marked reachable")
	}
	if c, ok := lf.Trips.Const(); !ok || c != 0 {
		t.Errorf("unreachable loop trips = %+v", lf.Trips)
	}
}

func seedTarget(t testing.TB, w workloads.Unit) *minic.FuncDecl {
	t.Helper()
	prog, err := minic.Parse(w.Source, minic.Options{Defines: w.Defines})
	if err != nil {
		t.Fatal(err)
	}
	fn, _, err := minic.FindTarget(prog)
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// TestStatesHoldTrackedIntsOnly pins the solver's state layout and cost.
// A flow state has one slot per tracked integer scalar — not one per
// declared variable, most of which are pointers and floats. One slab
// holds exactly one in state per block, one out state per edge a block
// has (outN for a jump, outT and outF for a branch) and the three scratch
// states; an edge a block does not have has no buffer and never goes
// live. A whole analysis stays under its allocation ceiling (the slab is
// one object, so the count does not move with the layout) and its byte
// ceiling (which does).
func TestStatesHoldTrackedIntsOnly(t *testing.T) {
	for _, w := range workloads.Units() {
		fn := seedTarget(t, w)
		res := resolveFn(fn)
		tracked := 0
		for _, v := range res.vars {
			if v.tracked {
				if v.slot != tracked {
					t.Errorf("%s %s: slot %d, want %d", w.Name, v.name, v.slot, tracked)
				}
				tracked++
			}
		}
		if res.slots != tracked || tracked == 0 || tracked >= len(res.vars) {
			t.Fatalf("%s: %d slots for %d tracked of %d variables", w.Name, res.slots, tracked, len(res.vars))
		}
		a := newAnalysis(fn, res, w.Params, defaultWidenDelay)
		states := []state{a.tmpIn, a.tmpOut, a.tmpEdge}
		var absent []*edgeState
		for i, bl := range a.g.blocks {
			f := &a.flows[i]
			if bl.cond != nil {
				states = append(states, f.in.st, f.outT.st, f.outF.st)
				absent = append(absent, &f.outN)
			} else {
				states = append(states, f.in.st, f.outN.st)
				absent = append(absent, &f.outT, &f.outF)
			}
		}
		// Every buffer is tracked slots long, and together they tile one
		// slab with no gap or overlap.
		size := uintptr(tracked) * unsafe.Sizeof(Val{})
		addrs := make([]uintptr, len(states))
		for i, st := range states {
			if len(st) != tracked || cap(st) != tracked {
				t.Fatalf("%s: a state has %d slots (cap %d), want %d", w.Name, len(st), cap(st), tracked)
			}
			addrs[i] = uintptr(unsafe.Pointer(&st[0]))
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for i := 1; i < len(addrs); i++ {
			if addrs[i]-addrs[i-1] != size {
				t.Fatalf("%s: states %d and %d are not adjacent in one slab", w.Name, i-1, i)
			}
		}
		for _, e := range absent {
			if e.st != nil {
				t.Fatalf("%s: an edge the block does not have has a %d-slot buffer", w.Name, len(e.st))
			}
		}
		if !a.solve() {
			t.Fatalf("%s: no fixpoint", w.Name)
		}
		for _, e := range absent {
			if e.live {
				t.Fatalf("%s: an edge the block does not have went live", w.Name)
			}
		}
	}

	w := workloads.Units()[0]
	fn := seedTarget(t, w)
	const ceiling = 160
	if got := testing.AllocsPerRun(5, func() { Analyze(fn, Options{Env: w.Params}) }); got > ceiling {
		t.Errorf("absint.Analyze(%s): %.0f allocations, ceiling %d", w.Name, got, ceiling)
	}
}

// TestAnalyzeBytesCeiling: one Analyze of the double-buffered GEMM (66
// blocks, 22 of them branches, 22 slots) under its launch env allocates
// 207,688 bytes; with four state buffers per block it allocated 304,932.
func TestAnalyzeBytesCeiling(t *testing.T) {
	var w workloads.Unit
	for _, u := range workloads.Units() {
		if u.Name == "gemm-double-buffering" {
			w = u
		}
	}
	fn := seedTarget(t, w)
	Analyze(fn, Options{Env: w.Params})
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Analyze(fn, Options{Env: w.Params})
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("absint.Analyze(%s): %d bytes", w.Name, got)
	const ceiling = 250_000
	if got > ceiling {
		t.Errorf("absint.Analyze(%s): %d bytes, ceiling %d", w.Name, got, ceiling)
	}
}

// orSrc's loop and if conditions use &&, || and !=, and one disjunct is
// an arithmetic truth test, so every transfer of their blocks runs
// refineOr and the generic refinement.
const orSrc = `
void f(int n) {
  float a[64];
  int k = 0;
  for (int i = 0; i < 60 && (i != n || k < 4); i++) {
    if (i != 3 || !(k == 2) || (i % 3)) {
      k = k + 1;
    }
    if (i < 5 && (k != n || i > 2)) {
      a[i] = 1.0;
    }
  }
}
`

// TestRefinementAllocatesPerAnalysis: refinement works in solver-owned
// scratch, so a solve that takes more passes (a later widening) allocates
// exactly as much as one that takes fewer.
func TestRefinementAllocatesPerAnalysis(t *testing.T) {
	prog, err := minic.Parse(orSrc, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Funcs[0]
	res := resolveFn(fn)
	run := func(delay int) (allocs float64, passes int) {
		allocs = testing.AllocsPerRun(5, func() {
			a := newAnalysis(fn, res, nil, delay)
			a.solve()
			passes = a.passes
		})
		return allocs, passes
	}
	few, fewPasses := run(1)
	many, manyPasses := run(12)
	if manyPasses <= fewPasses {
		t.Fatalf("delay 12 took %d passes, delay 1 %d: the kernel does not vary the pass count", manyPasses, fewPasses)
	}
	if many != few {
		t.Errorf("%.0f allocations over %d passes, %.0f over %d", many, manyPasses, few, fewPasses)
	}
}

// BenchmarkAnalyzeSeeds times one Analyze per seed unit, symbolic and
// under the unit's launch env, and reports the solver's fixpoint passes
// per op beside ns/op and B/op.
func BenchmarkAnalyzeSeeds(b *testing.B) {
	for _, w := range workloads.Units() {
		fn := seedTarget(b, w)
		for _, run := range []struct {
			name string
			env  map[string]int64
		}{{"symbolic", nil}, {"env", w.Params}} {
			b.Run(w.Name+"/"+run.name, func(b *testing.B) {
				passes := 0
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, a := analyze(fn, Options{Env: run.env})
					passes += a.passes
				}
				b.ReportMetric(float64(passes)/float64(b.N), "passes/op")
			})
		}
	}
}
