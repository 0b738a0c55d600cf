package sim

import (
	"context"
	"testing"

	"paravis/internal/hw"
	"paravis/internal/workloads"
)

// benchSrc is a small strided compute kernel: enough arithmetic per stage
// to exercise the fused closures, plus DRAM traffic on both ends.
const benchSrc = `
void bk(float* A, float* B, int n) {
  #pragma omp target parallel map(to:A[0:n]) map(from:B[0:n]) num_threads(4)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = id; i < n; i += nt) {
      B[i] = (A[i] * 3.0f + (float)i) / 2.0f - 1.0f;
    }
  }
}
`

// BenchmarkCompiledKernelStep measures the engine: each op is one full
// simulation of the kernel through the fused stage closures.
func BenchmarkCompiledKernelStep(b *testing.B) {
	ck := compileSrc(b, benchSrc, nil)
	const n = 512
	in := make([]float32, n)
	for i := range in {
		in[i] = float32(i%7) - 3
	}
	cfg := fastConfig()
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := NewZeroBuffer(n)
		r, err := Run(context.Background(), ck, Args{
			Ints:    map[string]int64{"n": int64(n)},
			Buffers: map[string]*Buffer{"A": NewFloatBuffer(in), "B": out},
		}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = r.Cycles
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
}

// seedUnit is one of the six seed workloads (five GEMM steps and pi) sized
// for a test or benchmark: the compiled kernel and a constructor of fresh
// launch arguments, since a run writes its from/tofrom buffers back.
type seedUnit struct {
	name string
	ck   *hw.CKernel
	args func() Args
}

// seedUnits compiles the seed workloads at GEMM dimension dim and piSteps
// series steps (a multiple of threads * BS_compute = 64).
func seedUnits(tb testing.TB, dim, piSteps int) []seedUnit {
	tb.Helper()
	a, b := workloads.GEMMInputs(dim)
	var us []seedUnit
	for _, u := range workloads.Units() {
		su := seedUnit{name: u.Name, ck: compileSrc(tb, u.Source, u.Defines)}
		if _, gemm := u.Params["DIM"]; gemm {
			su.args = func() Args {
				return Args{
					Ints: map[string]int64{"DIM": int64(dim)},
					Buffers: map[string]*Buffer{
						"A": NewFloatBuffer(a), "B": NewFloatBuffer(b), "C": NewZeroBuffer(dim * dim),
					},
				}
			}
		} else {
			su.args = func() Args {
				return Args{
					Ints:   map[string]int64{"steps": int64(piSteps), "threads": 8},
					Floats: map[string]float64{"step": 1 / float64(piSteps), "final_sum": 0},
				}
			}
		}
		us = append(us, su)
	}
	return us
}

// BenchmarkEngineSeeds measures the engine layer alone on the six seed
// workloads (five GEMM steps at DIM=32, pi at 25 600 steps), profiling on
// as in a CLI run: simulated Mcycles per host second, host ns per frame
// step, frame steps per thousand simulated cycles (coasting lowers it),
// and the share of steps that changed nothing (anticipated waits lower
// it).
func BenchmarkEngineSeeds(b *testing.B) {
	for _, u := range seedUnits(b, 32, 25600) {
		b.Run(u.name, func(b *testing.B) {
			cfg := DefaultConfig()
			var cycles, steps, failed int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := Run(context.Background(), u.ck, u.args(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles += r.Cycles
				steps += r.Steps
				failed += r.FailedSteps
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
			b.ReportMetric(float64(steps)*1000/float64(cycles), "steps/kcycle")
			b.ReportMetric(float64(failed)/float64(steps), "failed/step")
		})
	}
}
