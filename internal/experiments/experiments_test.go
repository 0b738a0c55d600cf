package experiments

import (
	"context"
	"strings"
	"testing"

	"paravis/internal/workloads"
)

// testOpts shrinks every experiment so the suite stays fast.
func testOpts() Options {
	opts := DefaultOptions()
	opts.GEMMDim = 32
	// Multiples of threads*BS_compute=64, scaled down with a matching
	// thread-start overhead so the Fig. 11-13 shape is preserved.
	opts.PiSteps = []int{9_600, 38_400, 96_000}
	opts.SimCfg.ThreadStart = 8000
	opts.Quiet = true
	return opts
}

func TestOverheadMatchesPaperShape(t *testing.T) {
	r, err := RunOverhead(context.Background(), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: max 5.4% regs / 4% ALMs, geo-means 2.41% / 3.42%; the model
	// must land in the same single-digit regime.
	if r.MaxReg <= 0 || r.MaxReg > 8 {
		t.Errorf("max register overhead %.2f%%", r.MaxReg)
	}
	if r.GeoMeanALM <= 0 || r.GeoMeanALM > 6 {
		t.Errorf("geo-mean ALM overhead %.2f%%", r.GeoMeanALM)
	}
	// Larger designs amortize the unit: overhead must decrease from naive
	// to double-buffered.
	first := r.GEMM[0].Report.ALMPct()
	last := r.GEMM[len(r.GEMM)-1].Report.ALMPct()
	if last >= first {
		t.Errorf("overhead did not shrink with design size: %.2f%% -> %.2f%%", first, last)
	}
	if !strings.Contains(r.Format(), "geo-mean") {
		t.Error("Format missing geo-mean line")
	}
}

func TestFig6ShapeHolds(t *testing.T) {
	r, err := RunFig6(context.Background(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's observation: a visible but minor share of time in
	// critical/spinning. At small matrices the share grows (shorter k
	// loops per lock), so accept a broad band but require both > 0.
	if r.CriticalPct <= 0 {
		t.Error("no critical time")
	}
	if r.SpinningPct <= 0 {
		t.Error("no spinning time")
	}
	if r.CriticalPct > 60 {
		t.Errorf("critical time %.1f%% implausibly high", r.CriticalPct)
	}
	if !strings.Contains(r.ZoomEvidence, "spinning on the lock held by thread") {
		t.Errorf("zoom evidence missing: %s", r.ZoomEvidence)
	}
}

func TestSpeedupShapeHolds(t *testing.T) {
	r, err := RunSpeedups(context.Background(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range r.Runs {
		if !run.Correct {
			t.Fatalf("%s incorrect", run.Version)
		}
	}
	// Paper's ordering: each step at least as fast, blocked >= 2x naive,
	// double-buffered fastest overall.
	if r.Speedup(workloads.GEMMNoCritical) <= 1.0 {
		t.Errorf("v2 speedup %.2f <= 1", r.Speedup(workloads.GEMMNoCritical))
	}
	if r.Speedup(workloads.GEMMPartialVec) <= r.Speedup(workloads.GEMMNoCritical) {
		t.Error("vectorization did not help")
	}
	if r.Speedup(workloads.GEMMBlocked) < 2 {
		t.Errorf("blocked speedup %.2f < 2", r.Speedup(workloads.GEMMBlocked))
	}
	if r.Speedup(workloads.GEMMDoubleBuffered) <= r.Speedup(workloads.GEMMBlocked) {
		t.Error("double buffering did not beat blocking")
	}
	// Fig. 7: vectorized version achieves higher bandwidth than naive;
	// double-buffered achieves the highest bandwidth among the blocked
	// variants (the paper's strongest claims about the throughput view).
	if r.Runs[workloads.GEMMPartialVec].BWBytesPerCycle <= r.Runs[workloads.GEMMNaive].BWBytesPerCycle {
		t.Error("vectorization did not raise achieved bandwidth (Fig. 7)")
	}
	if r.Runs[workloads.GEMMDoubleBuffered].BWBytesPerCycle <= r.Runs[workloads.GEMMBlocked].BWBytesPerCycle {
		t.Error("double buffering did not raise bandwidth over blocking (Fig. 7)")
	}
}

func TestPhaseShapeHolds(t *testing.T) {
	r, err := RunPhases(context.Background(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 8 vs Fig. 9: the double-buffered version must overlap load and
	// compute substantially more than the blocked version.
	bo := r.BlockedStats.Overlap()
	do := r.DoubleStats.Overlap()
	if do <= bo {
		t.Errorf("overlap: blocked %.2f, double-buffered %.2f — expected increase", bo, do)
	}
	if do < 1.5*bo {
		t.Errorf("overlap gain too small: %.2f -> %.2f", bo, do)
	}
}

// TestPiStepCounts: the pi kernel sums the series exactly only for step
// counts that are multiples of NT x BS_compute = 64. Any other count is
// refused before a simulation runs; 6400 and 12800 run and match the
// host reference, and E8's default sizes are accepted.
func TestPiStepCounts(t *testing.T) {
	opts := testOpts()
	opts.PiSteps = []int{6_400, 100_000}
	if _, err := RunPi(context.Background(), opts); err == nil || !strings.Contains(err.Error(), "multiple of 64") {
		t.Errorf("RunPi(100000 steps) error = %v, want one naming the multiple 64", err)
	}
	for _, steps := range DefaultOptions().PiSteps {
		if err := piStepsErr(steps); err != nil {
			t.Errorf("E8 size %d refused: %v", steps, err)
		}
	}
	opts.PiSteps = []int{6_400, 12_800}
	r, err := RunPi(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range r.Runs {
		if !run.Correct {
			t.Errorf("steps=%d: final_sum %g, want %g within 1e-3", run.Steps,
				run.Out.Result.ScalarsOut["final_sum"], workloads.PiRefSum(run.Steps, piNT))
		}
	}
}

// TestPiIgnoresThreads: the pi kernel runs num_threads(NT) with NT fixed
// at 8, so Options.Threads, the GEMM studies' thread count, changes
// nothing: 6400 steps with Threads 4 is the 8-thread run.
func TestPiIgnoresThreads(t *testing.T) {
	opts := DefaultOptions()
	opts.PiSteps, opts.Threads, opts.Quiet = []int{6_400}, 4, true
	r, err := RunPi(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Runs[0].Out.Result
	if res.Cycles != 183_254 || len(res.ThreadStart) != 8 || !r.Runs[0].Correct {
		t.Errorf("Threads 4: %d cycles, %d threads started, final_sum %g; want 183254, 8 and %g",
			res.Cycles, len(res.ThreadStart), res.ScalarsOut["final_sum"], workloads.PiRefSum(6_400, piNT))
	}
}

func TestPiShapeHolds(t *testing.T) {
	r, err := RunPi(context.Background(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 3 {
		t.Fatalf("runs = %d", len(r.Runs))
	}
	for _, run := range r.Runs {
		if !run.Correct {
			t.Errorf("steps=%d produced a wrong pi", run.Steps)
		}
	}
	// Fig. 11: at the smallest size, the first thread finishes before the
	// last starts. Fig. 13: at the largest, threads overlap substantially.
	if !r.Runs[0].DisjointThreads {
		t.Error("small run should show disjoint thread activity (Fig. 11)")
	}
	if r.Runs[2].DisjointThreads {
		t.Error("large run should overlap threads (Fig. 13)")
	}
	if r.Runs[2].ParallelFraction <= r.Runs[0].ParallelFraction {
		t.Error("parallel fraction did not grow with iteration count")
	}
	// GFLOP/s grows superlinearly at first (0.146 -> 0.556 is 3.8x for 4x
	// work), i.e. strictly increasing and more than the naive share.
	if !(r.Runs[0].GFlops < r.Runs[1].GFlops && r.Runs[1].GFlops < r.Runs[2].GFlops) {
		t.Errorf("GFLOP/s not increasing: %v %v %v",
			r.Runs[0].GFlops, r.Runs[1].GFlops, r.Runs[2].GFlops)
	}
}

func TestThreadScalingShapeHolds(t *testing.T) {
	r, err := RunThreadScaling(context.Background(), testOpts(), []int{1, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	// 1 -> 8 threads must speed up strongly; 8 -> 16 must not help much
	// (paper: more threads only add congestion).
	s8 := float64(r.Cycles[0]) / float64(r.Cycles[2])
	s16 := float64(r.Cycles[0]) / float64(r.Cycles[3])
	if s8 < 4 {
		t.Errorf("8-thread speedup %.2f < 4", s8)
	}
	if s16 > 1.25*s8 {
		t.Errorf("16 threads improved too much: %.2f vs %.2f", s16, s8)
	}
	if r.SaturationAt > 8 {
		t.Errorf("saturation at %d threads, expected <= 8", r.SaturationAt)
	}
}

func TestFormatsMentionPaperValues(t *testing.T) {
	opts := testOpts()
	sp, err := RunSpeedups(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sp.Format(), "paper") {
		t.Error("speedup format must cite paper values")
	}
	pi, err := RunPi(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pi.Format(), "0.146") {
		t.Error("pi format must cite the paper's GFLOP/s")
	}
}
