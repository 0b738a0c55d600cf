package perfbound

import (
	"runtime"
	"testing"

	"paravis/internal/workloads"
)

// analyzeCeilings are the objects one Analyze of a seed allocates under
// its canonical launch parameters, measured when the evaluator moved onto
// one arena per Analyze, plus 5 % (measured, then before the arena, when
// each graph made its own buffers, statistics maps and induction).
var analyzeCeilings = map[string]float64{
	"gemm-naive":                 34, // 32; 86
	"gemm-no-critical-sections":  34, // 32; 86
	"gemm-partial-vectorization": 35, // 33; 110
	"gemm-blocked":               47, // 44; 265
	"gemm-double-buffering":      55, // 52; 406
	"pi":                         34, // 32; 90
}

// TestAnalyzeAllocs pins what one Analyze allocates per seed.
func TestAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	for _, u := range workloads.Units() {
		k, s := schedule1(t, u)
		got := testing.AllocsPerRun(5, func() { Analyze(k, s, u.Params, DefaultConfig()) })
		t.Logf("%-28s %4.0f", u.Name, got)
		c, ok := analyzeCeilings[u.Name]
		if !ok {
			t.Errorf("%s: no ceiling", u.Name)
		}
		if got > c {
			t.Errorf("%s: Analyze allocates %.0f objects, ceiling %.0f", u.Name, got, c)
		}
	}
}

// BenchmarkAnalyzeSeeds runs one Analyze of each seed per op and reports
// each seed's allocations beside the total (-benchmem).
func BenchmarkAnalyzeSeeds(b *testing.B) {
	us := workloads.Units()
	type seed struct {
		name string
		run  func()
	}
	var seeds []seed
	for _, u := range us {
		k, s := schedule1(b, u)
		seeds = append(seeds, seed{u.Name, func() { Analyze(k, s, u.Params, DefaultConfig()) }})
	}
	b.ReportAllocs()
	allocs := make([]uint64, len(seeds))
	var ms runtime.MemStats
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, sd := range seeds {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			sd.run()
			runtime.ReadMemStats(&ms)
			allocs[i] += ms.Mallocs - before
		}
	}
	for i, sd := range seeds {
		b.ReportMetric(float64(allocs[i])/float64(b.N), sd.name+"-allocs/op")
	}
}
