package paravis

// One benchmark per table/figure of the paper's evaluation (§V). Each
// iteration regenerates the corresponding experiment at a reduced scale
// (cycle-level simulation of 512x512 GEMM is not benchmark material);
// custom metrics report the quantities the paper's figures display, so
// `go test -bench=. -benchmem` doubles as a compact reproduction run.

import (
	"context"
	"testing"

	"paravis/internal/experiments"
	"paravis/internal/profile"
	"paravis/internal/sim"
	"paravis/internal/workloads"
)

func benchOpts(dim int) experiments.Options {
	opts := experiments.DefaultOptions()
	opts.GEMMDim = dim
	opts.Quiet = true
	opts.SimCfg.MaxCycles = 2_000_000_000
	return opts
}

// BenchmarkOverheadGEMM regenerates E1/E2 (§V-B): the hardware footprint of
// all six designs with and without the profiling unit.
func BenchmarkOverheadGEMM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunOverhead(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GeoMeanReg, "geomean-reg-%")
		b.ReportMetric(r.GeoMeanALM, "geomean-alm-%")
		b.ReportMetric(r.MaxReg, "max-reg-%")
	}
}

// BenchmarkFig6StateView regenerates E3: the naive GEMM's state residency
// (paper: ~1.54% critical, ~1.57% spinning).
func BenchmarkFig6StateView(b *testing.B) {
	opts := benchOpts(32)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig6(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CriticalPct, "critical-%")
		b.ReportMetric(r.SpinningPct, "spinning-%")
	}
}

// BenchmarkFig7Bandwidth regenerates E4: average achieved memory throughput
// per GEMM version (paper Fig. 7's ordering).
func BenchmarkFig7Bandwidth(b *testing.B) {
	opts := benchOpts(32)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunSpeedups(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Runs[workloads.GEMMNaive].BWBytesPerCycle, "naive-B/cyc")
		b.ReportMetric(r.Runs[workloads.GEMMPartialVec].BWBytesPerCycle, "vec-B/cyc")
		b.ReportMetric(r.Runs[workloads.GEMMDoubleBuffered].BWBytesPerCycle, "dbuf-B/cyc")
	}
}

// BenchmarkGEMMSpeedups regenerates E5 (§V-C): execution-time ratios of the
// five versions (paper: 1.14x, 1.93x step, 5.28x, 19x vs naive).
func BenchmarkGEMMSpeedups(b *testing.B) {
	opts := benchOpts(32)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunSpeedups(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup(workloads.GEMMNoCritical), "v2-speedup")
		b.ReportMetric(r.Speedup(workloads.GEMMBlocked), "v4-speedup")
		b.ReportMetric(r.Speedup(workloads.GEMMDoubleBuffered), "v5-speedup")
	}
}

// BenchmarkFig8Blocked regenerates E6: the blocked version's load/compute
// phase separation (low overlap).
func BenchmarkFig8Blocked(b *testing.B) {
	opts := benchOpts(32)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunPhases(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BlockedStats.Overlap(), "blocked-overlap")
	}
}

// BenchmarkFig9DoubleBuffer regenerates E7: the double-buffered version's
// prefetch/compute overlap and its bandwidth advantage.
func BenchmarkFig9DoubleBuffer(b *testing.B) {
	opts := benchOpts(32)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunPhases(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.DoubleStats.Overlap(), "dbuf-overlap")
		b.ReportMetric(r.DoubleBuffered.BWBytesPerCycle, "dbuf-B/cyc")
	}
}

// BenchmarkFig11to13Pi regenerates E8 (§V-D): pi GFLOP/s scaling with the
// iteration count (paper: 0.146 -> 0.556 -> 1.507).
func BenchmarkFig11to13Pi(b *testing.B) {
	opts := benchOpts(32)
	opts.PiSteps = []int{19_200, 76_800, 192_000}
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunPi(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Runs[0].GFlops, "gflops-small")
		b.ReportMetric(r.Runs[len(r.Runs)-1].GFlops, "gflops-large")
	}
}

// BenchmarkThreadScaling regenerates E9 (§V-A): performance saturates at
// eight threads.
func BenchmarkThreadScaling(b *testing.B) {
	opts := benchOpts(32)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunThreadScaling(context.Background(), opts, []int{1, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.SaturationAt), "saturation-threads")
		b.ReportMetric(float64(r.Cycles[0])/float64(r.Cycles[len(r.Cycles)-1]), "16t-speedup")
	}
}

// --- Ablation benchmarks for the design choices DESIGN.md calls out ---

// BenchmarkAblationSamplePeriod measures trace size versus sampling period
// (the paper: "the higher the period, the more data is produced" — sic, the
// trade-off between resolution and trace volume).
func BenchmarkAblationSamplePeriod(b *testing.B) {
	for _, period := range []int64{256, 1024, 4096} {
		period := period
		b.Run(formatI64(period), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig()
				cfg.MaxCycles = 2_000_000_000
				cfg.Profile.SamplePeriod = period
				r, err := experiments.RunGEMM(context.Background(), workloads.GEMMNoCritical, 32, 8, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(countRecords(b, r.Out.Streams).events), "event-records")
				b.ReportMetric(float64(r.Out.Result.Prof.FlushedBytes), "flushed-bytes")
			}
		})
	}
}

// BenchmarkAblationProfilingPerturbation measures the runtime cost of the
// profiling unit's flush traffic (paper: negligible impact).
func BenchmarkAblationProfilingPerturbation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := sim.DefaultConfig()
		on.MaxCycles = 2_000_000_000
		off := on
		off.Profile = profile.Config{Enabled: false}
		rOn, err := experiments.RunGEMM(context.Background(), workloads.GEMMNoCritical, 32, 8, on)
		if err != nil {
			b.Fatal(err)
		}
		rOff, err := experiments.RunGEMM(context.Background(), workloads.GEMMNoCritical, 32, 8, off)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(float64(rOn.Cycles)/float64(rOff.Cycles)-1), "perturbation-%")
	}
}

// BenchmarkAblationDRAMLatency measures how the partial-vectorized (memory
// bound) and blocked (BRAM bound) versions respond to external latency —
// the mechanism behind the paper's blocking recommendation.
func BenchmarkAblationDRAMLatency(b *testing.B) {
	for _, lat := range []int{30, 60, 120} {
		lat := lat
		b.Run(formatI64(int64(lat)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig()
				cfg.MaxCycles = 2_000_000_000
				cfg.DRAM.LatencyCycles = lat
				vec, err := experiments.RunGEMM(context.Background(), workloads.GEMMPartialVec, 32, 8, cfg)
				if err != nil {
					b.Fatal(err)
				}
				blk, err := experiments.RunGEMM(context.Background(), workloads.GEMMBlocked, 32, 8, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(vec.Cycles), "vec-cycles")
				b.ReportMetric(float64(blk.Cycles), "blocked-cycles")
			}
		})
	}
}

// --- Micro-benchmarks for the simulator hot loop ---
//
// These guard the event-driven engine rework: the per-step and per-tick
// allocation counts (b.ReportAllocs) must stay near zero in steady state,
// or the frame/buffer/profile recycling has regressed.

// BenchmarkEngineStep measures the engine's inner loop end to end: each
// iteration simulates a complete small GEMM (the program itself is compiled
// once and cached), and the extra metric reports wall-clock nanoseconds per
// simulated cycle.
func BenchmarkEngineStep(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.MaxCycles = 2_000_000_000
	var simCycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunGEMM(context.Background(), workloads.GEMMNoCritical, 16, 8, cfg)
		if err != nil {
			b.Fatal(err)
		}
		simCycles += r.Cycles
	}
	b.StopTimer()
	if simCycles > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(simCycles), "ns/sim-cycle")
	}
}

// BenchmarkProfileTick measures the profiling unit's per-cycle cost: a
// stall-counter increment, a compute/memory event, and the Tick that
// closes sampling windows and flushes buffers.
func BenchmarkProfileTick(b *testing.B) {
	const threads = 8
	u := profile.New(profile.DefaultConfig(), threads, func(cycle int64, bytes int) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % threads
		u.AddStalls(t, 1)
		u.AddCompute(t, 1, 2)
		u.AddMem(t, 64, false)
		u.Tick(int64(i))
	}
}

func formatI64(v int64) string {
	const digits = "0123456789"
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return string(buf[i:])
}
