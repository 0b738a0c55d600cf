package depend

import (
	"strings"
	"testing"

	"paravis/internal/minic"
	"paravis/internal/workloads"
)

func analyzeSrc(t *testing.T, src string, defines map[string]string, env map[string]int64) *Report {
	t.Helper()
	prog, err := minic.Parse(src, minic.Options{Defines: defines})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, fn := range prog.Funcs {
		if minic.TargetOf(fn) != nil {
			return Analyze(fn, env)
		}
	}
	t.Fatalf("no omp target region in source")
	return nil
}

// oneLoop returns the report entry whose body contains the given source
// marker (matched by the loop starting on the marker's line).
func loopOnLine(t *testing.T, rep *Report, src, marker string) *LoopDeps {
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
	for _, l := range rep.Loops {
		if l.Line == line {
			return l
		}
	}
	t.Fatalf("no loop on line %d (marker %q); have %v", line, marker, rep.Loops)
	return nil
}

func selfDeps(l *LoopDeps) []Dep {
	var out []Dep
	for _, d := range l.Deps {
		if !d.CrossThread {
			out = append(out, d)
		}
	}
	return out
}

func crossDeps(l *LoopDeps) []Dep {
	var out []Dep
	for _, d := range l.Deps {
		if d.CrossThread {
			out = append(out, d)
		}
	}
	return out
}

// TestSeedsHaveNoProvenDeps pins the precision contract on the paper's
// six seed kernels: none of them has a provable loop-carried dependence
// (the row-major GEMM subscripts and the omp interleavings are exactly
// what the symbolic tests must discharge), so the vet rules and the
// advisor downgrades stay silent on them.
func TestSeedsHaveNoProvenDeps(t *testing.T) {
	type seed struct {
		name    string
		src     string
		defines map[string]string
	}
	var seeds []seed
	for _, v := range workloads.AllGEMMVersions {
		seeds = append(seeds, seed{v.String(), workloads.GEMMSource(v), workloads.GEMMDefines(v)})
	}
	seeds = append(seeds, seed{"pi", workloads.PiSource, workloads.PiDefines()})
	for _, s := range seeds {
		t.Run(s.name, func(t *testing.T) {
			rep := analyzeSrc(t, s.src, s.defines, nil)
			if len(rep.Loops) == 0 {
				t.Fatalf("no loops analyzed")
			}
			for _, l := range rep.Loops {
				for _, d := range l.Deps {
					if d.Proven {
						t.Errorf("%s: proven dependence %+v", l.Name, d)
					}
				}
				// Unrolled seed loops must stay transformable: an Illegal
				// verdict there would downgrade the paper's own remedies.
				if l.Unroll > 0 {
					if l.Legal.Unroll == Illegal {
						t.Errorf("%s: unrolled seed loop proven illegal: %s", l.Name, l.Legal.UnrollWhy)
					}
				}
			}
		})
	}
}

// TestSeedDetails spot-checks the extraction on the no-critical GEMM:
// thread-loop detection, per-loop strides, and the clean innermost
// reduction loop the advisor's narrow-accesses remedy relies on.
func TestSeedDetails(t *testing.T) {
	src := workloads.GEMMSource(workloads.GEMMNoCritical)
	rep := analyzeSrc(t, src, workloads.GEMMDefines(workloads.GEMMNoCritical), nil)

	iLoop := loopOnLine(t, rep, src, "for (int i = my_id")
	if !iLoop.ThreadLoop {
		t.Errorf("i loop not detected as thread-distributed")
	}
	if len(crossDeps(iLoop)) != 0 {
		t.Errorf("i loop cross-thread deps on owned rows: %+v", crossDeps(iLoop))
	}

	kLoop := loopOnLine(t, rep, src, "for (int k = 0")
	if len(kLoop.Deps) != 0 {
		t.Errorf("k reduction loop has deps: %+v", kLoop.Deps)
	}
	if kLoop.Legal.Unroll != Proven {
		t.Errorf("k loop unroll legality = %v, want proven", kLoop.Legal.Unroll)
	}
	var aStride int64 = -1
	for _, a := range kLoop.Accesses {
		if a.Array == "A" && a.StrideKnown {
			aStride = a.Stride
		}
		if a.Array == "B" && a.StrideKnown {
			t.Errorf("B stride should be symbolic (DIM unknown), got %d", a.Stride)
		}
	}
	if aStride != 1 {
		t.Errorf("A stride = %d, want 1", aStride)
	}

	// With DIM bound, the B stride folds.
	rep = analyzeSrc(t, src, workloads.GEMMDefines(workloads.GEMMNoCritical), map[string]int64{"DIM": 64})
	kLoop = loopOnLine(t, rep, src, "for (int k = 0")
	found := false
	for _, a := range kLoop.Accesses {
		if a.Array == "B" && a.StrideKnown && a.Stride == 64 {
			found = true
		}
	}
	if !found {
		t.Errorf("B stride with DIM=64 not folded: %+v", kLoop.Accesses)
	}
}

const stencilSrc = `
void smooth(float* A, float* B, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) map(to:B[0:n]) num_threads(1)
  {
    for (int i = 1; i < n; ++i) {
      A[i] = A[i - 1] * 0.5f + B[i] * 0.5f;
    }
  }
}
`

func TestStencilProvenFlowDistanceOne(t *testing.T) {
	rep := analyzeSrc(t, stencilSrc, nil, nil)
	l := loopOnLine(t, rep, stencilSrc, "for (int i = 1")
	deps := selfDeps(l)
	if len(deps) != 1 {
		t.Fatalf("want 1 dep, got %+v", deps)
	}
	d := deps[0]
	if !d.Proven || d.Kind != "flow" || !d.DistKnown || d.Distance != 1 || d.Array != "A" {
		t.Errorf("bad dep: %+v", d)
	}
	if l.Legal.Unroll != Illegal {
		t.Errorf("unroll legality = %v, want illegal", l.Legal.Unroll)
	}
	if l.Legal.Tile != Proven {
		t.Errorf("tile legality = %v, want proven (constant distance)", l.Legal.Tile)
	}
	if l.Legal.DoubleBuffer != Illegal {
		t.Errorf("double-buffer legality = %v, want illegal (flow dep)", l.Legal.DoubleBuffer)
	}
	if !strings.Contains(l.Legal.UnrollWhy, "flow dependence on A (distance 1)") {
		t.Errorf("unroll why = %q", l.Legal.UnrollWhy)
	}
}

const antiSrc = `
void shiftdown(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) num_threads(1)
  {
    for (int i = 0; i < n - 1; ++i) {
      A[i] = A[i + 1];
    }
  }
}
`

func TestAntiDependence(t *testing.T) {
	rep := analyzeSrc(t, antiSrc, nil, nil)
	l := loopOnLine(t, rep, antiSrc, "for (int i = 0")
	deps := selfDeps(l)
	if len(deps) != 1 {
		t.Fatalf("want 1 dep, got %+v", deps)
	}
	d := deps[0]
	if !d.Proven || d.Kind != "anti" || !d.DistKnown || d.Distance != 1 {
		t.Errorf("bad dep: %+v", d)
	}
	// Anti dependences do not block double buffering (renaming removes
	// them), but unrolling the body as-is would reorder the accesses.
	if l.Legal.DoubleBuffer != Proven {
		t.Errorf("double-buffer legality = %v, want proven", l.Legal.DoubleBuffer)
	}
	if l.Legal.Unroll != Illegal {
		t.Errorf("unroll legality = %v, want illegal", l.Legal.Unroll)
	}
}

const zivSrc = `
void accum(float* A, float* B, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) map(to:B[0:n]) num_threads(1)
  {
    for (int i = 0; i < n; ++i) {
      A[0] = A[0] + B[i];
    }
  }
}
`

func TestZIVAllIterations(t *testing.T) {
	rep := analyzeSrc(t, zivSrc, nil, nil)
	l := loopOnLine(t, rep, zivSrc, "for (int i = 0")
	var all *Dep
	for i, d := range selfDeps(l) {
		if d.AllIterations && d.Proven {
			all = &selfDeps(l)[i]
		}
	}
	if all == nil {
		t.Fatalf("no proven all-iterations dep: %+v", l.Deps)
	}
	if l.Legal.Tile != Illegal {
		t.Errorf("tile legality = %v, want illegal (no constant distance exists)", l.Legal.Tile)
	}
	if l.Legal.Unroll != Illegal {
		t.Errorf("unroll legality = %v, want illegal", l.Legal.Unroll)
	}
}

const threadShiftSrc = `
void shift(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) num_threads(4)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = id; i < n - 1; i += nt) {
      A[i + 1] = A[i] * 0.5f;
    }
  }
}
`

func TestThreadDistributedCrossDep(t *testing.T) {
	rep := analyzeSrc(t, threadShiftSrc, nil, nil)
	l := loopOnLine(t, rep, threadShiftSrc, "for (int i = id")
	if !l.ThreadLoop {
		t.Fatalf("thread loop not detected")
	}
	cross := crossDeps(l)
	proven := false
	for _, d := range cross {
		if d.Proven {
			proven = true
		}
	}
	if !proven {
		t.Errorf("want proven cross-thread dep, got %+v", l.Deps)
	}
	// Within one thread the stride-nt lattice never hits i+1: the
	// self-carried test must stay clean.
	if len(selfDeps(l)) != 0 {
		t.Errorf("unexpected self deps: %+v", selfDeps(l))
	}
}

const divFoldSrc = `
void pack(float* A, float* B, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) map(to:B[0:n]) num_threads(1)
  {
    for (int v = 0; v < n; v += 4) {
      A[v / 4] = B[v];
    }
    for (int w = 0; w < n; ++w) {
      A[w / 4] = B[w];
    }
  }
}
`

func TestDivModFolding(t *testing.T) {
	rep := analyzeSrc(t, divFoldSrc, nil, nil)
	// v steps by the divisor: v/4 is affine with unit stride, and the
	// writes provably never collide.
	vl := loopOnLine(t, rep, divFoldSrc, "for (int v = 0")
	if !vl.Affine {
		t.Errorf("v loop should be affine (v/4 folds when v += 4)")
	}
	if len(vl.Deps) != 0 {
		t.Errorf("v loop deps: %+v", vl.Deps)
	}
	ok := false
	for _, a := range vl.Accesses {
		if a.Array == "A" && a.StrideKnown && a.Stride == 1 {
			ok = true
		}
	}
	if !ok {
		t.Errorf("A stride not folded to 1: %+v", vl.Accesses)
	}
	// w steps by 1: w/4 is not affine; everything involving it is "may".
	wl := loopOnLine(t, rep, divFoldSrc, "for (int w = 0")
	if wl.Affine {
		t.Errorf("w loop must be non-affine (w/4 with unit step)")
	}
	if wl.Legal.Unroll != Unknown {
		t.Errorf("w loop unroll legality = %v, want unknown", wl.Legal.Unroll)
	}
	found := false
	for _, d := range wl.Deps {
		if d.Array == "A" && !d.Proven {
			found = true
		}
	}
	if !found {
		t.Errorf("w loop should report a may-dep on A: %+v", wl.Deps)
	}
}

const predicatedSrc = `
void cond(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) num_threads(1)
  {
    for (int i = 1; i < n; ++i) {
      if (n > 2) {
        A[i] = A[i - 1];
      }
    }
  }
}
`

func TestPredicatedAccessNeverProven(t *testing.T) {
	rep := analyzeSrc(t, predicatedSrc, nil, nil)
	l := loopOnLine(t, rep, predicatedSrc, "for (int i = 1")
	deps := selfDeps(l)
	if len(deps) == 0 {
		t.Fatalf("predicated stencil must still report a may-dep")
	}
	for _, d := range deps {
		if d.Proven {
			t.Errorf("predicated access reported proven: %+v", d)
		}
	}
	if l.Legal.Unroll != Unknown {
		t.Errorf("unroll legality = %v, want unknown (not illegal) under predication", l.Legal.Unroll)
	}
}

const triangularSrc = `
void tri(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) num_threads(1)
  {
    for (int i = 0; i < n; ++i) {
      for (int j = i; j < n; ++j) {
        A[j] = A[j] + 1.0f;
      }
    }
  }
}
`

func TestTriangularInnerClean(t *testing.T) {
	rep := analyzeSrc(t, triangularSrc, nil, nil)
	// The inner loop's subscript has a unit coefficient: no self-carried
	// dep regardless of the triangular start.
	jl := loopOnLine(t, rep, triangularSrc, "for (int j = i")
	if len(jl.Deps) != 0 {
		t.Errorf("j loop deps: %+v", jl.Deps)
	}
	// The outer loop revisits elements (iterations i and i' both touch
	// A[max(i,i')..n-1]): a dependence must be reported.
	il := loopOnLine(t, rep, triangularSrc, "for (int i = 0")
	if len(il.Deps) == 0 {
		t.Errorf("i loop must carry a dep (rows overlap)")
	}
}
