package depend

// Tests for the range-oracle refinement (AnalyzeRanges): a "may"
// dependence between accesses whose proven element footprints never
// overlap is discharged, and the refined report stays sound against
// brute-force enumeration of the kernel.

import (
	"testing"

	"paravis/internal/absint"
	"paravis/internal/minic"
)

// disjointSrc writes buf[i] (elements 0..7) and buf[15-i] (elements
// 8..15) in the same loop: the subscripts have opposite loop
// coefficients, so every affine test answers "may", but the interval
// analysis proves the footprints disjoint.
const disjointSrc = `
void f(float* A, int n) {
#pragma omp target parallel map(tofrom: A[0:16]) num_threads(1)
  {
    float buf[16];
    for (int i = 0; i < 8; ++i) {
      buf[i] = 1.0f;
      buf[15 - i] = 2.0f;
      A[i] = buf[i];
    }
  }
}
`

func parseTargetFn(t *testing.T, src string) (*minic.FuncDecl, *minic.TargetStmt) {
	t.Helper()
	prog, err := minic.Parse(src, minic.Options{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, fn := range prog.Funcs {
		if ts := minic.TargetOf(fn); ts != nil {
			return fn, ts
		}
	}
	t.Fatalf("no omp target region in source")
	return nil, nil
}

func bufDeps(rep *Report) []Dep {
	var out []Dep
	for _, l := range rep.Loops {
		for _, d := range l.Deps {
			if d.Array == "buf" {
				out = append(out, d)
			}
		}
	}
	return out
}

// TestRangeOracleDischargesMay checks the gate itself: without the
// oracle the opposite-coefficient pair is a "may" dependence, with it
// the pair is proven independent — and only the unproven verdict moves.
func TestRangeOracleDischargesMay(t *testing.T) {
	fn, _ := parseTargetFn(t, disjointSrc)
	ai := absint.Analyze(fn, absint.Options{})
	if !ai.OK {
		t.Fatal("abstract interpretation did not converge")
	}

	plain := bufDeps(Analyze(fn, nil))
	if len(plain) == 0 {
		t.Fatal("fixture lost its may dependence: without ranges, buf should report one")
	}
	for _, d := range plain {
		if d.Proven {
			t.Fatalf("fixture dependence unexpectedly proven: %+v", d)
		}
	}

	refined := bufDeps(AnalyzeRanges(fn, nil, ai.IndexRange))
	if len(refined) != 0 {
		t.Fatalf("range oracle left buf dependences standing: %+v", refined)
	}
}

// TestRangeOracleSoundAgainstEnumeration replays the kernel concretely
// and sound-checks the refined report against the recorded access
// events: dropping the dependence must never hide a real collision.
func TestRangeOracleSoundAgainstEnumeration(t *testing.T) {
	fn, ts := parseTargetFn(t, disjointSrc)
	ai := absint.Analyze(fn, absint.Options{})
	if !ai.OK {
		t.Fatal("abstract interpretation did not converge")
	}
	events, ok := runEnum(fn, ts, map[string]int64{"n": 16}, 100000)
	if !ok {
		t.Fatal("interpreter left its subset")
	}
	dram := map[string]bool{}
	for _, p := range fn.Params {
		if p.Type.IsPointer() {
			dram[p.Name] = true
		}
	}
	soundCheck(t, "refined", AnalyzeRanges(fn, nil, ai.IndexRange), events, dram)
}

// TestRangeOracleNeverTouchesProven pins the one-way contract: a proven
// dependence passes through the gate even when a (here deliberately
// lying) oracle claims the footprints are disjoint.
func TestRangeOracleNeverTouchesProven(t *testing.T) {
	const provenSrc = `
void g(float* A, int n) {
#pragma omp target parallel map(tofrom: A[0:16]) num_threads(1)
  {
    float buf[16];
    for (int i = 1; i < 8; ++i) {
      buf[i] = buf[i - 1] + 1.0f;
    }
    A[0] = buf[7];
  }
}
`
	fn, _ := parseTargetFn(t, provenSrc)
	next := int64(0)
	lyingOracle := func(e minic.Expr) (int64, int64, bool) {
		// Hand every query a fresh far-apart singleton so any pair the
		// gate consults looks disjoint.
		lo := next
		next += 1000
		return lo, lo, true
	}
	rep := AnalyzeRanges(fn, nil, lyingOracle)
	found := false
	for _, d := range bufDeps(rep) {
		if d.Proven && d.DistKnown && d.Distance == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("proven distance-1 dependence on buf missing: %+v", bufDeps(rep))
	}
}
