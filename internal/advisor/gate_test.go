package advisor

import (
	"context"
	"strings"
	"testing"

	"paravis/internal/core"
	"paravis/internal/depend"
	"paravis/internal/staticcheck"
	"paravis/internal/transform"
	"paravis/internal/workloads"
)

// stencilSrc carries a first-order recurrence: A[i] depends on A[i-1],
// so vectorizing the accesses and double buffering the array are both
// provably illegal, while blocking (a constant-distance reorder) is not
// provably so.
const stencilSrc = `
void prefix(float* A, float* B, int n) {
#pragma omp target parallel map(tofrom: A[0:n]) map(to: B[0:n]) num_threads(1)
  {
    for (int i = 1; i < n; i++) {
      A[i] = A[i - 1] + B[i];
    }
  }
}
`

func buildStencil(t *testing.T) *core.Program {
	t.Helper()
	p, err := core.Build(context.Background(), stencilSrc, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGateFindingDowngradesIllegalRemedies: on a kernel whose only loop
// provably forbids vectorization and double buffering, the corresponding
// remedies must be downgraded to Info and must name the blocking
// dependence — without losing the original suggestion text.
func TestGateFindingDowngradesIllegalRemedies(t *testing.T) {
	rep := depend.Analyze(buildStencil(t).Fn, nil)
	for kind, pass := range map[Kind]string{
		KindNarrowAccesses: transform.PassVectorize,
		KindDistinctPhases: transform.PassDoubleBuffer,
	} {
		f := Finding{Kind: kind, Severity: Major, Remedy: Remedy{Action: "stock remedy", Pass: pass}}
		gateFinding(&f, rep)
		if f.Severity != Info {
			t.Errorf("%s: severity = %s, want info (downgraded)", kind, f.Severity)
		}
		if !strings.Contains(f.Action(), "provably illegal") {
			t.Errorf("%s: action does not explain the downgrade: %s", kind, f.Action())
		}
		if !strings.Contains(f.Action(), "loop-carried flow dependence on A") {
			t.Errorf("%s: blocking dependence not named: %s", kind, f.Action())
		}
		if !strings.Contains(f.Action(), "stock remedy") {
			t.Errorf("%s: original remedy text dropped: %s", kind, f.Action())
		}
	}
}

// TestGateFindingKeepsUndecidedSeverity: blocking the stencil loop is not
// provably illegal (the dependence has a constant distance), so the
// memory-bound remedy keeps its severity; it may only gain an annotation.
func TestGateFindingKeepsUndecidedSeverity(t *testing.T) {
	rep := depend.Analyze(buildStencil(t).Fn, nil)
	f := Finding{Kind: KindMemoryBound, Severity: Major, Remedy: Remedy{Action: "block the working set", Pass: transform.PassBlockBRAM}}
	gateFinding(&f, rep)
	if f.Severity != Major {
		t.Errorf("severity = %s, want major (tile not provably illegal)", f.Severity)
	}
	if !strings.Contains(f.Action(), "block the working set") {
		t.Errorf("original remedy text dropped: %s", f.Action())
	}
}

// TestAdviseProgramProvenRemedyUnchanged: the no-critical GEMM's k-loop
// reads A and B and accumulates into a scalar — vectorization is proven
// legal, so the narrow-accesses remedy must pass through verbatim (the
// static/dynamic wording cross-check depends on this).
func TestAdviseProgramProvenRemedyUnchanged(t *testing.T) {
	v := workloads.GEMMNoCritical
	p, err := core.Build(context.Background(), workloads.GEMMSource(v), core.BuildOptions{
		Defines: workloads.GEMMDefines(v),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := runVersion(t, v, 32)
	for _, fd := range AdviseProgram(p, out) {
		if fd.Kind == KindNarrowAccesses {
			if fd.Action() != staticcheck.ActionNarrowAccesses {
				t.Fatalf("proven-legal remedy was altered:\n%s", fd.Action())
			}
			return
		}
	}
	t.Fatal("narrow-accesses finding missing")
}

// TestAdviseProgramNeverDrops: gating reshapes findings but must never
// remove one — the diagnosis survives even when the remedy is illegal.
func TestAdviseProgramNeverDrops(t *testing.T) {
	v := workloads.GEMMBlocked
	p, err := core.Build(context.Background(), workloads.GEMMSource(v), core.BuildOptions{
		Defines: workloads.GEMMDefines(v),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := runVersion(t, v, 32)
	plain := Advise(out)
	gated := AdviseProgram(p, out)
	if len(gated) != len(plain) {
		t.Fatalf("gating changed the finding count: %d -> %d", len(plain), len(gated))
	}
	want := map[Kind]int{}
	for _, f := range plain {
		want[f.Kind]++
	}
	for _, f := range gated {
		want[f.Kind]--
	}
	for k, n := range want {
		if n != 0 {
			t.Errorf("finding kind %s dropped or duplicated by gating", k)
		}
	}
}

// TestRemedyStructPopulated: after gating, the structured remedy carries
// the transform pass name and the machine-readable verdict, and the
// rendered string is derived from exactly those fields.
func TestRemedyStructPopulated(t *testing.T) {
	rep := depend.Analyze(buildStencil(t).Fn, nil)
	f := Finding{Kind: KindNarrowAccesses, Severity: Major,
		Remedy: Remedy{Action: "stock remedy", Pass: transform.PassVectorize}}
	gateFinding(&f, rep)
	if f.Remedy.Legality != depend.Illegal {
		t.Errorf("legality = %v, want illegal", f.Remedy.Legality)
	}
	if !strings.Contains(f.Remedy.Why, "loop-carried flow dependence on A") {
		t.Errorf("why does not name the blocker: %q", f.Remedy.Why)
	}
	if f.Remedy.Pass != transform.PassVectorize {
		t.Errorf("pass = %q, want %q", f.Remedy.Pass, transform.PassVectorize)
	}
	want := "suggested remedy is provably illegal here (" + f.Remedy.Why +
		"); the bottleneck is real but needs an algorithm-level restructuring instead. Stock remedy withheld: stock remedy"
	if f.Action() != want {
		t.Errorf("render drifted from struct:\n got %q\nwant %q", f.Action(), want)
	}
}
