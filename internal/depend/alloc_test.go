package depend

import (
	"testing"

	"paravis/internal/absint"
	"paravis/internal/ir"
	"paravis/internal/lower"
	"paravis/internal/minic"
	"paravis/internal/schedule"
	"paravis/internal/workloads"
)

// dependSeed is one seed unit ready for both front ends: its target
// function with the abstract interpreter's symbolic index ranges (what
// the vet report analyzes), and its lowered kernel with the schedule's
// latencies and the launch parameters (what perfbound analyzes).
type dependSeed struct {
	name   string
	fn     *minic.FuncDecl
	ranges RangeFn
	k      *ir.Kernel
	lat    func(*ir.Node) int
	env    map[string]int64
}

func dependSeeds(t testing.TB) []dependSeed {
	t.Helper()
	var out []dependSeed
	for _, w := range workloads.Units() {
		prog, err := minic.Parse(w.Source, minic.Options{Defines: w.Defines})
		if err != nil {
			t.Fatal(err)
		}
		fn, _, err := minic.FindTarget(prog)
		if err != nil {
			t.Fatal(err)
		}
		k, err := lower.Lower(prog)
		if err != nil {
			t.Fatal(err)
		}
		s, err := schedule.Build(k, schedule.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, dependSeed{
			name:   w.Name,
			fn:     fn,
			ranges: absint.Analyze(fn, absint.Options{}).IndexRange,
			k:      k,
			lat:    func(n *ir.Node) int { return s.Lat[n.ID] },
			env:    w.Params,
		})
	}
	return out
}

// Sinks keep the benchmarked calls' results live.
var (
	reportSink *Report
	kernelSink *KernelDeps
)

// BenchmarkDependSeeds runs each front end once per op on every seed:
// the AST analysis as the vet report runs it and the IR analysis as
// perfbound does. Run with -benchmem for allocs/op.
func BenchmarkDependSeeds(b *testing.B) {
	for _, s := range dependSeeds(b) {
		b.Run(s.name+"/ast", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reportSink = AnalyzeRanges(s.fn, nil, s.ranges)
			}
		})
		b.Run(s.name+"/ir", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kernelSink = AnalyzeKernel(s.k, s.env, s.lat)
			}
		})
	}
}

// TestDependAllocs pins what one analysis allocates per seed, AST and IR
// front end as BenchmarkDependSeeds runs them. Each ceiling is the count
// measured when polynomials became term slices over interned monomials
// and every list of a run came from its arena, plus 5 % (before: 46 to
// 816 objects for the AST analysis, 27 to 263 for the IR one).
func TestDependAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	ceilings := map[string][2]float64{
		"gemm-naive":                 {26, 21}, // 24, 20
		"gemm-no-critical-sections":  {26, 21}, // 24, 20
		"gemm-partial-vectorization": {26, 23}, // 24, 21
		"gemm-blocked":               {41, 27}, // 39, 25
		"gemm-double-buffering":      {51, 28}, // 48, 26
		"pi":                         {11, 21}, // 10, 20
	}
	for _, s := range dependSeeds(t) {
		got := [2]float64{
			testing.AllocsPerRun(5, func() { AnalyzeRanges(s.fn, nil, s.ranges) }),
			testing.AllocsPerRun(5, func() { AnalyzeKernel(s.k, s.env, s.lat) }),
		}
		t.Logf("%-28s ast %4.0f  ir %4.0f", s.name, got[0], got[1])
		c, ok := ceilings[s.name]
		if !ok {
			t.Errorf("%s: no ceiling", s.name)
		}
		for i, name := range []string{"AnalyzeRanges", "AnalyzeKernel"} {
			if got[i] > c[i] {
				t.Errorf("%s: %s allocates %.0f objects, ceiling %.0f", s.name, name, got[i], c[i])
			}
		}
	}
}
