package workloads

import (
	"context"
	"math"
	"testing"

	"paravis/internal/hw"
	"paravis/internal/lower"
	"paravis/internal/minic"
	"paravis/internal/schedule"
	"paravis/internal/sim"
)

// compileKernel builds the full pipeline for a workload source.
func compileKernel(t testing.TB, src string, defines map[string]string) *hw.CKernel {
	t.Helper()
	prog, err := minic.Parse(src, minic.Options{Defines: defines})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	k, err := lower.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	s, err := schedule.Build(k, schedule.DefaultConfig())
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	ck, err := hw.Compile(k, s)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return ck
}

func runGEMM(t testing.TB, v GEMMVersion, dim int) (*sim.Result, []float32) {
	t.Helper()
	ck := compileKernel(t, GEMMSource(v), GEMMDefines(v))
	a, b := GEMMInputs(dim)
	cbuf := sim.NewZeroBuffer(dim * dim)
	cfg := sim.DefaultConfig()
	cfg.ThreadStart = 100
	cfg.MaxCycles = 200_000_000
	res, err := sim.Run(context.Background(), ck, sim.Args{
		Ints: map[string]int64{"DIM": int64(dim)},
		Buffers: map[string]*sim.Buffer{
			"A": sim.NewFloatBuffer(a),
			"B": sim.NewFloatBuffer(b),
			"C": cbuf,
		},
	}, cfg)
	if err != nil {
		t.Fatalf("run %s: %v", v, err)
	}
	return res, cbuf.Floats()
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestAllGEMMVersionsCorrect(t *testing.T) {
	dim := 16
	a, b := GEMMInputs(dim)
	want := GEMMRef(a, b, dim)
	for _, v := range AllGEMMVersions {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			_, got := runGEMM(t, v, dim)
			if d := maxAbsDiff(got, want); d > 1e-2 {
				t.Fatalf("version %s: max abs diff %v", v, d)
			}
		})
	}
}

func TestGEMMVersionsGetFaster(t *testing.T) {
	// The paper's headline: each optimization step improves (or at least
	// does not regress) execution time; blocked and double-buffered are
	// much faster than naive.
	dim := 32
	cycles := make([]int64, len(AllGEMMVersions))
	for i, v := range AllGEMMVersions {
		res, _ := runGEMM(t, v, dim)
		cycles[i] = res.Cycles
		t.Logf("%-22s %10d cycles", v, res.Cycles)
	}
	if cycles[GEMMNoCritical] >= cycles[GEMMNaive] {
		t.Errorf("NoCritical (%d) not faster than Naive (%d)", cycles[GEMMNoCritical], cycles[GEMMNaive])
	}
	if cycles[GEMMPartialVec] >= cycles[GEMMNoCritical] {
		t.Errorf("PartialVec (%d) not faster than NoCritical (%d)", cycles[GEMMPartialVec], cycles[GEMMNoCritical])
	}
	if float64(cycles[GEMMNaive])/float64(cycles[GEMMBlocked]) < 2 {
		t.Errorf("Blocked speedup over Naive only %.2fx", float64(cycles[GEMMNaive])/float64(cycles[GEMMBlocked]))
	}
	if cycles[GEMMDoubleBuffered] >= cycles[GEMMBlocked] {
		t.Errorf("DoubleBuffered (%d) not faster than Blocked (%d)", cycles[GEMMDoubleBuffered], cycles[GEMMBlocked])
	}
}

func TestGEMMNaiveHasCriticalStates(t *testing.T) {
	res, _ := runGEMM(t, GEMMNaive, 16)
	if res.LockAcquisitions == 0 {
		t.Error("naive GEMM never acquired the lock")
	}
	if res.LockContended == 0 {
		t.Error("naive GEMM shows no contention (expected spinning, Fig. 6)")
	}
}

func TestGEMMNoCriticalHasNoLocks(t *testing.T) {
	res, _ := runGEMM(t, GEMMNoCritical, 16)
	if res.LockAcquisitions != 0 {
		t.Errorf("no-critical version acquired locks %d times", res.LockAcquisitions)
	}
}

func TestPiKernel(t *testing.T) {
	ck := compileKernel(t, PiSource, PiDefines())
	steps := 4096
	cfg := sim.DefaultConfig()
	cfg.ThreadStart = 200
	cfg.MaxCycles = 100_000_000
	res, err := sim.Run(context.Background(), ck, sim.Args{
		Ints:   map[string]int64{"steps": int64(steps), "threads": 8},
		Floats: map[string]float64{"final_sum": 0, "step": 1.0 / float64(steps)},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.ScalarsOut["final_sum"]
	wantSum := float64(PiRefSum(steps, 8))
	if math.Abs(sum-wantSum) > 1e-1 {
		t.Fatalf("pi sum = %v, want %v", sum, wantSum)
	}
	got := sum / float64(steps)
	if math.Abs(got-math.Pi) > 1e-2 {
		t.Fatalf("pi estimate %v too far from pi", got)
	}
}

func TestPiRefConverges(t *testing.T) {
	const steps = 1_000_000
	got := float64(PiRefSum(steps, 8) * (float32(1.0) / float32(steps)))
	if math.Abs(got-math.Pi) > 1e-4 {
		t.Fatalf("PiRefSum(1e6)/1e6 = %v", got)
	}
}

func TestGEMMInputsDeterministic(t *testing.T) {
	a1, b1 := GEMMInputs(8)
	a2, b2 := GEMMInputs(8)
	for i := range a1 {
		if a1[i] != a2[i] || b1[i] != b2[i] {
			t.Fatal("inputs not deterministic")
		}
	}
}

// gemmRefStrict computes the reference with the same accumulation order
// as the kernels (plain triple loop): the oracle GEMMRef's reordered loops
// are checked against.
func gemmRefStrict(a, b []float32, dim int) []float32 {
	c := make([]float32, dim*dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			var s float32
			for k := 0; k < dim; k++ {
				s += a[i*dim+k] * b[k*dim+j]
			}
			c[i*dim+j] = s
		}
	}
	return c
}

func TestGEMMRefAgreement(t *testing.T) {
	a, b := GEMMInputs(12)
	fast := GEMMRef(a, b, 12)
	strict := gemmRefStrict(a, b, 12)
	if d := maxAbsDiff(fast, strict); d > 1e-3 {
		t.Fatalf("reference implementations disagree by %v", d)
	}
}
