package perfbound_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"paravis/internal/core"
	"paravis/internal/perfbound"
	"paravis/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden bound files")

// selectChainSrc is a strided loop partially unrolled by four: the
// lowering turns the trailing guarded replicas into a select chain on the
// induction variable, which no affine pattern matches, so its trips fold
// only by iterating the control slice (n = 1002 leaves the last pass of
// every thread partly predicated off).
const selectChainSrc = `
void scale(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) num_threads(4)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    #pragma unroll 4
    for (int i = id; i < n; i += nt) {
      A[i] = A[i] * 2.0f;
    }
  }
}
`

// goldenUnits are the seed workloads plus the three kernels static_sweep
// adds at its sizes and the select-chain kernel.
func goldenUnits(t *testing.T) []workloads.Unit {
	us := workloads.Units()
	for _, f := range []struct {
		name, path string
		params     map[string]int64
	}{
		{"dotprod", "../../benchmark/testdata/dotprod.mc", map[string]int64{"n": 16384}},
		{"saxpy", "../../benchmark/testdata/saxpy.mc", map[string]int64{"n": 16384}},
		{"gemm-example", "../../examples/gemm/gemm.mc", map[string]int64{"DIM": 64}},
	} {
		src, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		us = append(us, workloads.Unit{Name: f.name, Source: string(src), Params: f.params})
	}
	return append(us, workloads.Unit{Name: "select-chain", Source: selectChainSrc, Params: map[string]int64{"n": 1002}})
}

// TestGoldenBounds locks the rendered report of every seed workload
// (the five GEMM optimization steps and pi), of static_sweep's example
// kernels and of a partially unrolled loop to a golden file. The reports
// are deterministic, so any analyzer change shows up as a reviewable
// diff. The goldens were written by the map-based evaluator of the commit
// before the dense one: never -update them to make an evaluator change
// pass.
func TestGoldenBounds(t *testing.T) {
	for _, w := range goldenUnits(t) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := core.Build(context.Background(), w.Source, core.BuildOptions{Defines: w.Defines})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rep := perfbound.Analyze(prog.Kernel, prog.Sched, w.Params, perfbound.DefaultConfig())
			got := rep.Format()
			path := filepath.Join("testdata", w.Name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("report drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestReportDeterministic re-analyzes a workload and checks the JSON
// encoding is byte-identical — the property nymbleperf -json relies on.
func TestReportDeterministic(t *testing.T) {
	w := workloads.Units()[0]
	prog, err := core.Build(context.Background(), w.Source, core.BuildOptions{Defines: w.Defines})
	if err != nil {
		t.Fatal(err)
	}
	enc := func() string {
		rep := perfbound.Analyze(prog.Kernel, prog.Sched, w.Params, perfbound.DefaultConfig())
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := enc(), enc()
	if a != b {
		t.Errorf("two analyses of the same kernel differ:\n%s\n%s", a, b)
	}
}

// TestSymbolicWorkload checks the analyzer degrades soundly without
// launch parameters: data-dependent trip counts stay unknown, the upper
// bound is reported unknown, and the lower bound stays positive.
func TestSymbolicWorkload(t *testing.T) {
	w := workloads.Units()[0] // gemm-naive: all loops bounded by DIM
	prog, err := core.Build(context.Background(), w.Source, core.BuildOptions{Defines: w.Defines})
	if err != nil {
		t.Fatal(err)
	}
	rep := perfbound.Analyze(prog.Kernel, prog.Sched, nil, perfbound.DefaultConfig())
	if rep.Cycles.UpperKnown {
		t.Errorf("upper bound claimed known with DIM unbound: %+v", rep.Cycles)
	}
	if rep.Cycles.Upper != 0 {
		t.Errorf("unknown upper bound must be zeroed, got %d", rep.Cycles.Upper)
	}
	if rep.Cycles.Lower <= 0 {
		t.Errorf("lower bound must stay positive, got %d", rep.Cycles.Lower)
	}
	hasUnknown := false
	for _, l := range rep.Loops {
		if !l.TripsKnown {
			hasUnknown = true
		}
	}
	if !hasUnknown {
		t.Error("expected at least one unfoldable trip count without DIM")
	}
}

// tripSrc is a minimal strided-loop kernel: per thread,
// ceil((N - tid)/nthreads) iterations; for N=64 and 4 threads, exactly
// 16 for every thread.
const tripSrc = `
void k(float* A, int N) {
  #pragma omp target parallel map(tofrom:A[0:N]) num_threads(4)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = id; i < N; i += nt) {
      A[i] = A[i] + 1.0f;
    }
  }
}
`

// TestTripCounts folds a strided loop's trip count and checks the
// soundness-critical inequality lower <= upper on the resulting bounds.
func TestTripCounts(t *testing.T) {
	prog, err := core.Build(context.Background(), tripSrc, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := perfbound.Analyze(prog.Kernel, prog.Sched, map[string]int64{"N": 64}, perfbound.DefaultConfig())
	if len(rep.Loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(rep.Loops))
	}
	l := rep.Loops[0]
	if !l.TripsKnown || l.TripsLo != 16 || l.TripsHi != 16 {
		t.Errorf("strided loop trips = [%d,%d] known=%v, want exactly 16", l.TripsLo, l.TripsHi, l.TripsKnown)
	}
	if !rep.Cycles.UpperKnown || rep.Cycles.Lower > rep.Cycles.Upper || rep.Cycles.Lower <= 0 {
		t.Errorf("bad bounds: %+v", rep.Cycles)
	}
}

// TestAnalyzeAllocationsIndependentOfTrips: folding a loop allocates
// nothing per trip, so the analysis of dotprod costs the same number of
// allocations at 32 trips per thread as at 512 — and few: the evaluator's
// compiled form is built once per Analyze and re-run for every thread.
// (The map-based evaluator allocated 1,422 and 14,384.)
func TestAnalyzeAllocationsIndependentOfTrips(t *testing.T) {
	src, err := os.ReadFile("../../benchmark/testdata/dotprod.mc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Build(context.Background(), string(src), core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int64) float64 {
		env := map[string]int64{"n": n}
		return testing.AllocsPerRun(5, func() {
			perfbound.Analyze(prog.Kernel, prog.Sched, env, perfbound.DefaultConfig())
		})
	}
	small, large := allocs(1024), allocs(16384)
	t.Logf("perfbound.Analyze(dotprod): %.0f allocations at n=1024, %.0f at n=16384", small, large)
	// One either way is sync.Pool: under the race detector it drops items
	// at random. The per-trip evaluator differed by 12,962.
	if d := small - large; d < -2 || d > 2 {
		t.Errorf("allocations scale with the trip count: %.0f at n=1024, %.0f at n=16384", small, large)
	}
	const ceiling = 150
	if large > ceiling {
		t.Errorf("%.0f allocations, ceiling %d", large, ceiling)
	}
}
