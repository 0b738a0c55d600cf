package sim

import (
	"context"
	"math"
	"testing"

	"paravis/internal/hw"
	"paravis/internal/lower"
	"paravis/internal/minic"
	"paravis/internal/profile"
	"paravis/internal/schedule"
)

func compileSrc(t testing.TB, src string, defines map[string]string) *hw.CKernel {
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

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.ThreadStart = 50
	cfg.MaxCycles = 50_000_000
	return cfg
}

func TestSimScaleKernel(t *testing.T) {
	src := `
void scale(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) num_threads(1)
  {
    for (int i = 0; i < n; i++) {
      A[i] = A[i] * 2.0f + 1.0f;
    }
  }
}
`
	ck := compileSrc(t, src, nil)
	n := 64
	in := make([]float32, n)
	for i := range in {
		in[i] = float32(i)
	}
	buf := NewFloatBuffer(in)
	res, err := Run(context.Background(), ck, Args{
		Ints:    map[string]int64{"n": int64(n)},
		Buffers: map[string]*Buffer{"A": buf},
	}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := buf.Floats()
	for i := 0; i < n; i++ {
		want := float32(i)*2 + 1
		if out[i] != want {
			t.Fatalf("A[%d] = %v, want %v", i, out[i], want)
		}
	}
	if res.Cycles <= 0 {
		t.Error("no cycles elapsed")
	}
	if res.TotalFpOps() < int64(2*n) {
		t.Errorf("FLOPs = %d, want >= %d", res.TotalFpOps(), 2*n)
	}
}

func TestSimReductionSingleThread(t *testing.T) {
	src := `
void total(float* A, float* out, int n) {
  #pragma omp target parallel map(to:A[0:n]) map(from:out[0:1]) num_threads(1)
  {
    float s = 0.0f;
    for (int i = 0; i < n; i++) {
      s += A[i];
    }
    out[0] = s;
  }
}
`
	ck := compileSrc(t, src, nil)
	n := 100
	in := make([]float32, n)
	var want float32
	for i := range in {
		in[i] = float32(i) * 0.5
		want += in[i]
	}
	out := NewZeroBuffer(1)
	_, err := Run(context.Background(), ck, Args{
		Ints:    map[string]int64{"n": int64(n)},
		Buffers: map[string]*Buffer{"A": NewFloatBuffer(in), "out": out},
	}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := out.Floats()[0]
	if math.Abs(float64(got-want)) > 1e-3 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

const gemmNaiveSrc = `
#define DTYPE float
void matmul(DTYPE* A, DTYPE* B, DTYPE* C, int DIM) {
  #pragma omp target parallel map(from:C[0:DIM*DIM]) \
    map(to:A[0:DIM*DIM], B[0:DIM*DIM]) num_threads(8)
  {
    int my_id = omp_get_thread_num();
    int num_threads = omp_get_num_threads();
    for (int i = 0; i < DIM; ++i) {
      for (int j = 0; j < DIM; ++j) {
        DTYPE sum = 0;
        for (int k = my_id; k < DIM; k += num_threads) {
          sum += A[i*DIM+k] * B[k*DIM+j];
        }
        #pragma omp critical
        {
          C[i*DIM + j] += sum;
        }
      }
    }
  }
}
`

// gemmRef computes the float32 reference product.
func gemmRef(a, b []float32, dim int) []float32 {
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

func TestSimGEMMNaiveMatchesReference(t *testing.T) {
	dim := 12
	ck := compileSrc(t, gemmNaiveSrc, nil)
	a := make([]float32, dim*dim)
	b := make([]float32, dim*dim)
	for i := range a {
		a[i] = float32((i*7)%5) - 2
		b[i] = float32((i*3)%7) - 3
	}
	cbuf := NewZeroBuffer(dim * dim)
	res, err := Run(context.Background(), ck, Args{
		Ints: map[string]int64{"DIM": int64(dim)},
		Buffers: map[string]*Buffer{
			"A": NewFloatBuffer(a), "B": NewFloatBuffer(b), "C": cbuf,
		},
	}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := gemmRef(a, b, dim)
	got := cbuf.Floats()
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-2 {
			t.Fatalf("C[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// The critical section must actually have been exercised.
	if res.LockAcquisitions != int64(dim*dim*8) {
		t.Errorf("lock acquisitions = %d, want %d", res.LockAcquisitions, dim*dim*8)
	}
	// Every thread should have contributed FLOPs.
	for th, f := range res.FpOps {
		if f == 0 {
			t.Errorf("thread %d did no FP work", th)
		}
	}
}

func TestSimSharedScalarReduction(t *testing.T) {
	src := `
void accum(float* dummy, int n, float total) {
  #pragma omp target parallel map(to:dummy[0:1]) map(tofrom:total) num_threads(4)
  {
    int id = omp_get_thread_num();
    #pragma omp critical
    {
      total += (float)(id + 1);
    }
  }
}
`
	ck := compileSrc(t, src, nil)
	res, err := Run(context.Background(), ck, Args{
		Ints:    map[string]int64{"n": 1},
		Floats:  map[string]float64{"total": 10},
		Buffers: map[string]*Buffer{"dummy": NewZeroBuffer(1)},
	}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 10 + 1+2+3+4 = 20.
	if got := res.ScalarsOut["total"]; got != 20 {
		t.Fatalf("total = %v, want 20", got)
	}
}

func TestSimVectorizedKernel(t *testing.T) {
	src := `
void vsum(float* A, float* out, int n) {
  #pragma omp target parallel map(to:A[0:n]) map(from:out[0:4]) num_threads(1)
  {
    VECTOR acc = {0.0f};
    for (int i = 0; i < n; i += 4) {
      VECTOR v = *((VECTOR*)&A[i]);
      acc += v;
    }
    *((VECTOR*)&out[0]) = acc;
  }
}
`
	ck := compileSrc(t, src, nil)
	n := 64
	in := make([]float32, n)
	var want [4]float32
	for i := range in {
		in[i] = float32(i % 9)
		want[i%4] += in[i]
	}
	out := NewZeroBuffer(4)
	_, err := Run(context.Background(), ck, Args{
		Ints:    map[string]int64{"n": int64(n)},
		Buffers: map[string]*Buffer{"A": NewFloatBuffer(in), "out": out},
	}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := out.Floats()
	for l := 0; l < 4; l++ {
		if got[l] != want[l] {
			t.Fatalf("lane %d = %v, want %v", l, got[l], want[l])
		}
	}
}

func TestSimLocalArrayBlocking(t *testing.T) {
	src := `
#define BS 8
void rev(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) num_threads(1)
  {
    for (int b = 0; b < n; b += BS) {
      float buf[BS];
      for (int i = 0; i < BS; i++) {
        buf[i] = A[b+i];
      }
      for (int i = 0; i < BS; i++) {
        A[b+i] = buf[BS-1-i];
      }
    }
  }
}
`
	ck := compileSrc(t, src, nil)
	n := 32
	in := make([]float32, n)
	for i := range in {
		in[i] = float32(i)
	}
	buf := NewFloatBuffer(in)
	_, err := Run(context.Background(), ck, Args{
		Ints:    map[string]int64{"n": int64(n)},
		Buffers: map[string]*Buffer{"A": buf},
	}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := buf.Floats()
	for b := 0; b < n; b += 8 {
		for i := 0; i < 8; i++ {
			want := float32(b + 7 - i)
			if out[b+i] != want {
				t.Fatalf("A[%d] = %v, want %v", b+i, out[b+i], want)
			}
		}
	}
}

func TestSimIfConversion(t *testing.T) {
	src := `
void clampneg(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) num_threads(2)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = id; i < n; i += nt) {
      float v = A[i];
      if (v < 0.0f) {
        A[i] = 0.0f;
      } else {
        A[i] = v * 2.0f;
      }
    }
  }
}
`
	ck := compileSrc(t, src, nil)
	n := 40
	in := make([]float32, n)
	for i := range in {
		in[i] = float32(i%5) - 2
	}
	buf := NewFloatBuffer(in)
	_, err := Run(context.Background(), ck, Args{
		Ints:    map[string]int64{"n": int64(n)},
		Buffers: map[string]*Buffer{"A": buf},
	}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := buf.Floats()
	for i := 0; i < n; i++ {
		want := in[i] * 2
		if in[i] < 0 {
			want = 0
		}
		if out[i] != want {
			t.Fatalf("A[%d] = %v, want %v (in %v)", i, out[i], want, in[i])
		}
	}
}

func TestSimUnrolledLoop(t *testing.T) {
	src := `
void usum(float* A, float* out, int n) {
  #pragma omp target parallel map(to:A[0:n]) map(from:out[0:1]) num_threads(1)
  {
    float s = 0.0f;
    #pragma unroll 4
    for (int i = 0; i < n; i++) {
      s += A[i];
    }
    out[0] = s;
  }
}
`
	ck := compileSrc(t, src, nil)
	// n=10 is not divisible by 4: the guarded tail must be correct.
	n := 10
	in := make([]float32, n)
	var want float32
	for i := range in {
		in[i] = float32(i + 1)
		want += in[i]
	}
	out := NewZeroBuffer(1)
	_, err := Run(context.Background(), ck, Args{
		Ints:    map[string]int64{"n": int64(n)},
		Buffers: map[string]*Buffer{"A": NewFloatBuffer(in), "out": out},
	}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Floats()[0]; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestSimBarrier(t *testing.T) {
	src := `
void phases(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) num_threads(4)
  {
    int id = omp_get_thread_num();
    A[id] = (float)(id + 1);
    #pragma omp barrier
    A[4 + id] = A[(id + 1) % 4] * 10.0f;
  }
}
`
	ck := compileSrc(t, src, nil)
	buf := NewZeroBuffer(8)
	_, err := Run(context.Background(), ck, Args{
		Ints:    map[string]int64{"n": 8},
		Buffers: map[string]*Buffer{"A": buf},
	}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := buf.Floats()
	for id := 0; id < 4; id++ {
		want := float32((id+1)%4+1) * 10
		if out[4+id] != want {
			t.Fatalf("A[%d] = %v, want %v (barrier ordering)", 4+id, out[4+id], want)
		}
	}
}

func TestSimDeterminism(t *testing.T) {
	ck := compileSrc(t, gemmNaiveSrc, nil)
	dim := 8
	run := func() (int64, []float32) {
		a := make([]float32, dim*dim)
		b := make([]float32, dim*dim)
		for i := range a {
			a[i] = float32(i % 3)
			b[i] = float32(i % 4)
		}
		cbuf := NewZeroBuffer(dim * dim)
		res, err := Run(context.Background(), ck, Args{
			Ints: map[string]int64{"DIM": int64(dim)},
			Buffers: map[string]*Buffer{
				"A": NewFloatBuffer(a), "B": NewFloatBuffer(b), "C": cbuf,
			},
		}, fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles, cbuf.Floats()
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 {
		t.Fatalf("nondeterministic cycles: %d vs %d", c1, c2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("nondeterministic result at %d", i)
		}
	}
}

func TestSimProfilerStates(t *testing.T) {
	ck := compileSrc(t, gemmNaiveSrc, nil)
	dim := 8
	a := make([]float32, dim*dim)
	b := make([]float32, dim*dim)
	cbuf := NewZeroBuffer(dim * dim)
	cfg := fastConfig()
	res, err := Run(context.Background(), ck, Args{
		Ints: map[string]int64{"DIM": int64(dim)},
		Buffers: map[string]*Buffer{
			"A": NewFloatBuffer(a), "B": NewFloatBuffer(b), "C": cbuf,
		},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prof == nil {
		t.Fatal("profiler missing")
	}
	dur := make([][4]int64, 8)
	for th := 0; th < 8; th++ {
		// The closed runs and the open run closed at the end tile
		// [0, Cycles).
		runs := res.Prof.StateRuns(th)
		if len(runs) == 0 {
			t.Fatalf("thread %d has no state runs", th)
		}
		if r, ok := res.Prof.OpenStateRun(th, res.Cycles); ok {
			runs = append(runs[:len(runs):len(runs)], r)
		}
		at := int64(0)
		for _, r := range runs {
			if r.Begin != at || r.End <= r.Begin {
				t.Fatalf("thread %d: run %v does not follow cycle %d", th, r, at)
			}
			dur[th][r.State] += r.End - r.Begin
			at = r.End
		}
		if at != res.Cycles {
			t.Errorf("thread %d runs end at %d, want %d", th, at, res.Cycles)
		}
		if dur[th][profile.StateCritical] == 0 {
			t.Errorf("thread %d never in Critical state", th)
		}
	}
	// With 8 threads hammering one lock there must be some spinning.
	var spin int64
	for th := 0; th < 8; th++ {
		spin += dur[th][profile.StateSpinning]
	}
	if spin == 0 {
		t.Error("no spinning recorded despite contended critical section")
	}
	if res.TotalStalls() == 0 {
		t.Error("memory-bound GEMM recorded no stalls")
	}
}

func TestSimProfilingPerturbationSmall(t *testing.T) {
	ck := compileSrc(t, gemmNaiveSrc, nil)
	dim := 8
	run := func(enabled bool) int64 {
		a := make([]float32, dim*dim)
		b := make([]float32, dim*dim)
		for i := range a {
			a[i], b[i] = 1, 1
		}
		cfg := fastConfig()
		cfg.Profile.Enabled = enabled
		res, err := Run(context.Background(), ck, Args{
			Ints: map[string]int64{"DIM": int64(dim)},
			Buffers: map[string]*Buffer{
				"A": NewFloatBuffer(a), "B": NewFloatBuffer(b), "C": NewZeroBuffer(dim * dim),
			},
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	with := run(true)
	without := run(false)
	// The paper reports negligible performance impact; allow 5%.
	diff := float64(with-without) / float64(without)
	if diff < -0.05 || diff > 0.05 {
		t.Errorf("profiling perturbation %.2f%% (with=%d without=%d)", diff*100, with, without)
	}
}

func TestSimThreadStartStaggering(t *testing.T) {
	src := `
void quick(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:8]) num_threads(8)
  {
    int id = omp_get_thread_num();
    A[id] = (float)id;
  }
}
`
	ck := compileSrc(t, src, nil)
	cfg := fastConfig()
	cfg.ThreadStart = 1000
	res, err := Run(context.Background(), ck, Args{
		Ints:    map[string]int64{"n": 8},
		Buffers: map[string]*Buffer{"A": NewZeroBuffer(8)},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With a trivial kernel and large start overhead, earlier threads
	// finish before later ones start (the pi case study's observation).
	if res.ThreadEnd[0] >= res.ThreadStart[7] {
		t.Errorf("thread 0 ended at %d, thread 7 started at %d: expected disjoint",
			res.ThreadEnd[0], res.ThreadStart[7])
	}
}

func TestSimMissingArgs(t *testing.T) {
	ck := compileSrc(t, gemmNaiveSrc, nil)
	_, err := Run(context.Background(), ck, Args{}, fastConfig())
	if err == nil {
		t.Fatal("expected missing-argument error")
	}
}

func TestSimStallHotspots(t *testing.T) {
	ck := compileSrc(t, gemmNaiveSrc, nil)
	dim := 12
	a := make([]float32, dim*dim)
	b := make([]float32, dim*dim)
	res, err := Run(context.Background(), ck, Args{
		Ints: map[string]int64{"DIM": int64(dim)},
		Buffers: map[string]*Buffer{
			"A": NewFloatBuffer(a), "B": NewFloatBuffer(b), "C": NewZeroBuffer(dim * dim),
		},
	}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StallsByLoop) == 0 {
		t.Fatal("no stall attribution")
	}
	// The innermost k-loop does the external loads: it must dominate.
	var best string
	var bestN, total int64
	for name, n := range res.StallsByLoop {
		total += n
		if n > bestN {
			best, bestN = name, n
		}
	}
	if total == 0 || bestN*2 < total {
		t.Errorf("no dominant hotspot: %v", res.StallsByLoop)
	}
	if best == "top" {
		t.Errorf("hotspot should be a loop, got %q", best)
	}
}

// TestProfileFlushAllocatesNothing: once the first flush requests have
// completed, later flushes reuse them, so a profiled run's flush traffic
// does not allocate per flush.
func TestProfileFlushAllocatesNothing(t *testing.T) {
	ck := compileSrc(t, `
void one(float* A) {
  #pragma omp target parallel map(tofrom:A[0:4]) num_threads(1)
  {
    A[0] = 1.0f;
  }
}
`, nil)
	e, err := newEngine(ck, Args{Buffers: map[string]*Buffer{"A": NewZeroBuffer(4)}}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	flush := func() {
		e.flushProfile(e.cycle, 256)
		e.flushProfile(e.cycle, 512)
		for e.dram.Busy() {
			e.cycle++
			e.dram.Tick(e.cycle)
		}
	}
	flush()
	if got := testing.AllocsPerRun(100, flush); got != 0 {
		t.Errorf("%.1f allocations per two flushes, want 0", got)
	}
	if len(e.profReqs) != 2 {
		t.Errorf("%d requests on the free list, want the 2 the flushes share", len(e.profReqs))
	}
}
