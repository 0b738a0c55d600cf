package absint

// FuzzAbsint feeds arbitrary MiniC sources through the interpreter: it
// must never panic, and because every run computes a sound
// over-approximation, runs at different widening aggressiveness must
// agree — proven facts from one may not contradict the other's — and
// each run must match the oracle solver step for step.

import (
	"os"
	"path/filepath"
	"testing"

	"paravis/internal/minic"
)

func FuzzAbsint(f *testing.F) {
	seeds := []string{
		tripSrc, strideSrc, laneSrc, oobSrc, refineSrc, deadSrc, divSrc,
		windowSrc, unreachableLoopSrc, ImpureCondSrc, orSrc,
	}
	// testdata/skipped_visit.mc: the i2 head sits clean while the i4 loop
	// still iterates, and its trip bracket moves if those skipped visits
	// stop counting toward the widening delay. testdata/dead_edge.mc: the
	// i > n + n edge is live under the widened i and dies in narrowing.
	// TestGoldenResults pins both against the round-robin solver's output.
	files, err := filepath.Glob("testdata/*.mc")
	if err != nil || len(files) == 0 {
		f.Fatalf("no solver seeds in testdata (%v)", err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, string(src))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		prog, err := minic.Parse(src, minic.Options{})
		if err != nil {
			return
		}
		for _, fn := range prog.Funcs {
			env := map[string]int64{}
			for _, p := range fn.Params {
				if !p.Type.IsPointer() {
					env[p.Name] = 5
				}
			}
			precise := Analyze(fn, Options{Env: env}) // must not panic
			coarse := Analyze(fn, Options{Env: env, WidenDelay: -1})
			Analyze(fn, Options{}) // symbolic run must not panic either
			for _, opts := range []Options{{Env: env}, {Env: env, WidenDelay: -1}, {}} {
				if err := CompareWithOracle(fn, opts); err != nil {
					t.Fatal(err)
				}
			}
			if !precise.OK || !coarse.OK {
				continue
			}
			checkAgreement(t, precise, coarse)
		}
	})
}

// checkAgreement asserts that two sound runs never prove contradictory
// facts: widening earlier may only lose precision, not flip verdicts.
func checkAgreement(t *testing.T, a, b *Result) {
	t.Helper()
	for _, fa := range a.Accesses {
		fb := b.Access(fa.Node)
		if fb == nil {
			continue
		}
		if (fa.Verdict == InBounds && fb.Verdict == OOB) ||
			(fa.Verdict == OOB && fb.Verdict == InBounds) {
			t.Fatalf("access %s at %s: precise=%v coarse=%v", fa.Array, fa.Pos, fa.Verdict, fb.Verdict)
		}
		if fa.ElemOK && fb.ElemOK && fa.Elem.Meet(fb.Elem).Empty {
			t.Fatalf("access %s at %s: disjoint elem ranges %+v vs %+v", fa.Array, fa.Pos, fa.Elem, fb.Elem)
		}
	}
	for loop, la := range a.Loops {
		lb := b.Loops[loop]
		if lb == nil {
			continue
		}
		if la.Reachable != lb.Reachable {
			// Reachability is itself a proven fact on the "false" side only:
			// unreachable in one run, reachable in the other is fine when the
			// unreachable claim comes from the more precise run — but a
			// coarser run can never prove MORE, so precise-unreachable with
			// coarse-reachable is the only legal disagreement.
			if la.Reachable && !lb.Reachable {
				t.Fatalf("loop %s: coarse proves unreachable, precise does not", la.Name)
			}
			continue
		}
		if la.Reachable && la.Trips.Meet(lb.Trips).Empty {
			t.Fatalf("loop %s: disjoint trip brackets %+v vs %+v", la.Name, la.Trips, lb.Trips)
		}
	}
	condsB := map[minic.Stmt]*CondFact{}
	for _, cf := range b.Conds {
		condsB[cf.Stmt] = cf
	}
	for _, ca := range a.Conds {
		if cb, ok := condsB[ca.Stmt]; ok {
			if (ca.AlwaysTrue && cb.AlwaysFalse) || (ca.AlwaysFalse && cb.AlwaysTrue) {
				t.Fatalf("cond at %s: contradictory constant verdicts", ca.Pos)
			}
		}
	}
	for _, da := range a.Divs {
		for _, db := range b.Divs {
			if da.Node == db.Node && da.ProvenZero != db.ProvenZero {
				// Proven-zero requires an exact constant; a coarser run may
				// lose the constant, but both claiming different constants is
				// impossible. Losing precision downgrades to MayZero at most.
				if db.ProvenZero && !da.ProvenZero {
					t.Fatalf("div at %s: coarse proves zero, precise does not", da.Pos)
				}
			}
		}
	}
}
