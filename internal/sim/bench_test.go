package sim

import (
	"context"
	"testing"
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
