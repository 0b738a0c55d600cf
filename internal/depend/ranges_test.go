package depend

// Tests for the range-oracle refinement (AnalyzeRanges): a "may"
// dependence between accesses whose proven element footprints never
// overlap is discharged, and the refined report stays sound against
// brute-force enumeration of the kernel.

import (
	"testing"

	"paravis/internal/absint"
	"paravis/internal/minic"
	"paravis/internal/workloads"
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

// TestAnalyzeRangesAllocationCeiling pins what one range-refined analysis
// allocates, symbolic and at DIM=64, on gemm-naive and on the
// double-buffered GEMM, whose nest has the most access pairs. The solver
// builds its overlap intervals in scratch and splits each access's base
// once, so the count follows the loop nest, not the pairs: gemm-naive
// went from 218 objects to 170, double buffering from 3,930 to 954 when
// the intervals stopped being materialised per (pair, carrying loop,
// free loop), and to 24 and 51 once every polynomial, affine form and
// list of a run came from its arena. The ceilings leave room for the
// race detector (27 and 70).
func TestAnalyzeRangesAllocationCeiling(t *testing.T) {
	for _, c := range []struct {
		v       workloads.GEMMVersion
		ceiling float64
	}{
		{workloads.GEMMNaive, 40},
		{workloads.GEMMDoubleBuffered, 90},
	} {
		prog, err := minic.Parse(workloads.GEMMSource(c.v), minic.Options{Defines: workloads.GEMMDefines(c.v)})
		if err != nil {
			t.Fatal(err)
		}
		fn, _, err := minic.FindTarget(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, env := range []map[string]int64{nil, {"DIM": 64}} {
			ai := absint.Analyze(fn, absint.Options{Env: env})
			got := testing.AllocsPerRun(5, func() { AnalyzeRanges(fn, env, ai.IndexRange) })
			t.Logf("%s env=%v: %.0f allocations", c.v, env, got)
			if got > c.ceiling {
				t.Errorf("%s env=%v: AnalyzeRanges allocates %.0f, ceiling %.0f", c.v, env, got, c.ceiling)
			}
		}
	}
}
